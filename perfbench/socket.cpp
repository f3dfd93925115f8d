// `socket`: the same input and passes as `oneshot`, run as 4 real rank
// processes (transport::run_gang + RunOptions::transport). Each rank
// process writes its timings, answer digests and (when traced) spans to a
// file under the output directory; the parent merges them, then replays
// the pass on shm and demands byte-identical answers.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "algos/gather.hpp"
#include "bench.hpp"
#include "comm/transport/launcher.hpp"
#include "core/balance.hpp"

namespace perfbench {

namespace hg = hpcg::graph;
namespace hc = hpcg::comm;
namespace hcore = hpcg::core;
namespace ht = hpcg::comm::transport;

namespace {

constexpr int kSetups = 5;  // setup_s is their median; each takes over a second

/// What one rank process reports back to the parent.
struct RankLog {
  double entry_s = 0.0;  // child entry, CLOCK_MONOTONIC
  double build_s = 0.0;  // Dist2DGraph construction
  double ready_s = 0.0;  // after the post-build barrier
  std::uint64_t answers_digest = 0;  // rank 0: gathered warm-up answers
  double comm_wall_s = 0.0;  // over the timed passes
  double comp_wall_s = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
  QueryRecord warm;
  std::vector<QueryRecord> passes;
};

void write_record(std::ostream& out, const char* tag, const QueryRecord& rec) {
  out << tag;
  for (int q = 0; q < kQueries; ++q) out << ' ' << fmt(rec.seconds[q]) << ' ' << rec.digest[q];
  out << '\n';
}

void write_log(const std::string& path, const RankLog& log) {
  std::ofstream out(path);
  out << "entry " << fmt(log.entry_s) << "\nbuild " << fmt(log.build_s) << "\nready "
      << fmt(log.ready_s) << "\ndigest " << log.answers_digest << "\ncomm_wall "
      << fmt(log.comm_wall_s) << "\ncomp_wall " << fmt(log.comp_wall_s) << "\nbytes "
      << log.bytes << "\nmessages " << log.messages << '\n';
  write_record(out, "warm", log.warm);
  for (const auto& rec : log.passes) write_record(out, "pass", rec);
}

std::optional<RankLog> read_log(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  RankLog log;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream f(line);
    std::string key;
    f >> key;
    if (key == "entry") f >> log.entry_s;
    if (key == "build") f >> log.build_s;
    if (key == "ready") f >> log.ready_s;
    if (key == "digest") f >> log.answers_digest;
    if (key == "comm_wall") f >> log.comm_wall_s;
    if (key == "comp_wall") f >> log.comp_wall_s;
    if (key == "bytes") f >> log.bytes;
    if (key == "messages") f >> log.messages;
    if (key == "warm" || key == "pass") {
      QueryRecord rec;
      for (int q = 0; q < kQueries; ++q) f >> rec.seconds[q] >> rec.digest[q];
      if (!f) return std::nullopt;
      (key == "warm" ? log.warm : log.passes.emplace_back()) = rec;
    }
  }
  return log;
}

double max_of(const std::vector<double>& v) { return *std::max_element(v.begin(), v.end()); }

}  // namespace

Report run_socket(const Options& options) {
  Report report;
  const int scale = options.small ? 12 : 18;
  const hcore::Grid grid(2, 2);
  const std::string dir = options.out_dir + "/socket-" + std::to_string(::getpid());

  std::vector<double> setup_s, generate_s, finish_s, partition_s, dist_build_s, launch_s;
  hg::EdgeList el;
  std::optional<hcore::Partitioned2D> parts;
  std::vector<Gid> roots;
  std::vector<RankLog> logs(kRanks);

  for (int s = 0; s < kSetups; ++s) {
    const bool last = s == kSetups - 1;
    parts.reset();
    el = {};
    std::filesystem::create_directories(dir);
    const double t0 = now_s();
    InputTimes input;
    el = make_input(scale, options.seed, &input);
    const double tp = now_s();
    {
      Span span("core", "Partitioned2D::build");
      parts.emplace(hcore::Partitioned2D::build(el, grid, true));
    }
    const double t_partitioned = now_s();
    if (last) roots = pick_roots(el, kBfsRoots, mix_seed(options.seed, 2));

    ht::GangOptions gang_options;
    gang_options.procs = kRanks;
    gang_options.max_restarts = 0;
    Span gang_span("comm/transport", "run_gang");
    const auto gang_parent = gang_span.id();
    const double t_launch = now_s();
    const auto gang = ht::run_gang(gang_options, [&](ht::SocketTransport& t, int) -> int {
      RankLog log;
      log.entry_s = now_s();
      const int rank = t.rank();
      Tracer::become_child(rank);
      InheritParent inherit(gang_parent);
      auto run = run_options();
      run.transport = &t;
      hc::RunStats stats;
      {
        Span span("comm", "Runtime::run");
        stats = hc::Runtime::run(kRanks, hc::Topology::aimos(kRanks), hc::CostModel{}, run,
                                 [&](hc::Comm& comm) {
          const double tb = now_s();
          std::unique_ptr<hcore::Dist2DGraph> g;
          {
            Span build("core", "Dist2DGraph");
            g = std::make_unique<hcore::Dist2DGraph>(comm, *parts);
          }
          log.build_s = now_s() - tb;
          {
            Span barrier("comm", "barrier");
            comm.barrier();
          }
          log.ready_s = now_s();
          if (!last) return;

          PassAnswers answers;
          const double tw = now_s();
          log.warm = run_pass(*g, roots, &answers);
          std::vector<std::int64_t> passes{pass_count(now_s() - tw, options.seconds)};
          {
            Span gather("algos", "gather_row_state");
            const auto pr =
                hpcg::algos::gather_row_state(*g, std::span<const double>(answers.pr));
            std::vector<std::vector<std::int64_t>> levels;
            for (const auto& l : answers.levels) {
              levels.push_back(
                  hpcg::algos::gather_row_state(*g, std::span<const std::int64_t>(l)));
            }
            const auto cc = hpcg::algos::gather_row_state(*g, std::span<const Gid>(answers.cc));
            if (comm.rank() == 0) log.answers_digest = global_digest(pr, levels, cc);
          }
          {
            Span bcast("comm", "broadcast");
            comm.broadcast(std::span<std::int64_t>(passes), 0);
          }
          {
            // The run's counters and clocks now cover the timed passes only.
            Span reset("comm", "reset_clocks");
            comm.reset_clocks();
          }
          for (std::int64_t p = 0; p < passes[0]; ++p) {
            Untraced untraced(options.trace && p % 2 == 1);
            log.passes.push_back(run_pass(*g, roots));
          }
        });
      }
      log.comm_wall_s = stats.max_comm();
      log.comp_wall_s = stats.max_comp();
      log.bytes = stats.bytes;
      log.messages = stats.messages;
      write_log(dir + "/rank" + std::to_string(rank) + ".txt", log);
      if (Tracer::enabled()) {
        write_span_shard(dir + "/spans" + std::to_string(rank) + ".tsv", Tracer::spans());
      }
      return 0;
    });
    report.check(gang.exit_code == 0 && gang.restarts == 0,
                 "socket gang exited " + std::to_string(gang.exit_code));
    std::vector<double> entry, build;
    for (int r = 0; r < kRanks; ++r) {
      auto log = read_log(dir + "/rank" + std::to_string(r) + ".txt");
      if (!log) throw std::runtime_error("socket rank " + std::to_string(r) + " wrote no log");
      auto& slot = logs[static_cast<std::size_t>(r)];
      slot = std::move(*log);
      entry.push_back(slot.entry_s);
      build.push_back(slot.build_s);
      if (Tracer::enabled()) {
        Tracer::merge(read_span_shard(dir + "/spans" + std::to_string(r) + ".tsv", r + 1));
      }
    }
    std::filesystem::remove_all(dir);
    setup_s.push_back((t_partitioned - t0) + (logs[0].ready_s - t_launch));
    generate_s.push_back(input.generate_s);
    finish_s.push_back(input.finish_s);
    partition_s.push_back(t_partitioned - tp);
    dist_build_s.push_back(max_of(build));
    launch_s.push_back(max_of(entry) - t_launch);
  }
  const double peak_mb = peak_rss_mb();

  // The shm replay of the same pass is the identity oracle: every rank's
  // answer to every query, and rank 0's gathered answers, must match it
  // byte for byte.
  const auto balance = hcore::partition_balance(*parts);
  const auto replay = modeled_replay(*parts, roots);
  report.check(logs[0].answers_digest == replay.global_digest,
               "gathered socket answers differ from the shm replay");
  std::vector<QueryRecord> warm;
  std::vector<std::vector<QueryRecord>> records;
  for (const auto& log : logs) {
    if (log.passes.size() != logs[0].passes.size()) {
      throw std::runtime_error("rank processes disagree on the pass count");
    }
    warm.push_back(log.warm);
    records.push_back(log.passes);
  }
  check_passes(report, warm, records, replay);

  const auto summary = summarize(records);
  add_replay_guards(report, replay, el.m());
  report.notes.push_back("samples: setups=" + std::to_string(kSetups) +
                         " passes=" + std::to_string(summary.pass_s.size()) +
                         " queries=" + std::to_string(summary.query_s.size()));

  if (!options.trace) {
    add_pass_e2e(report, setup_s, summary, replay, peak_mb);
    return report;
  }

  const auto per_pass = static_cast<double>(summary.pass_s.size());
  std::vector<double> comm_wall, comp_wall;
  for (const auto& log : logs) {
    comm_wall.push_back(log.comm_wall_s / per_pass);
    comp_wall.push_back(log.comp_wall_s / per_pass);
  }
  init_layers(report);
  set_setup_layers(report, generate_s, finish_s, el.m(), partition_s, dist_build_s,
                   balance.edge_imbalance());
  set_pass_layers(report, summary, replay);
  set_layer(report, "transport.launch_s", median(launch_s));
  set_layer(report, "transport.comm_wall_s", max_of(comm_wall));
  set_layer(report, "transport.comp_wall_s", max_of(comp_wall));
  set_layer(report, "transport.bytes_rank0", static_cast<double>(logs[0].bytes) / per_pass);
  set_layer(report, "transport.messages_rank0",
            static_cast<double>(logs[0].messages) / per_pass);
  add_trace_layers(report, Tracer::spans(), summary.pass_s);
  return report;
}

}  // namespace perfbench
