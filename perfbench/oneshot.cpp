// `oneshot`: the hpcg_run user path on shm. Cold setup (input build,
// partition, per-rank CSR) repeated kSetups times, then query passes on the
// last resident graph, a modeled replay, and checks against the sequential
// oracles in algos::ref.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "algos/bfs.hpp"
#include "algos/reference.hpp"
#include "bench.hpp"
#include "core/balance.hpp"
#include "graph/csr.hpp"

namespace perfbench {

namespace hg = hpcg::graph;
namespace hc = hpcg::comm;
namespace hcore = hpcg::core;

namespace {

constexpr int kSetups = 5;  // setup_s is their median; each takes over a second

/// Compares the replay's answers with the sequential oracles on the same
/// striped input. Consumes `el` (relabeled in place).
void check_against_reference(Report& report, hg::EdgeList el,
                             const hg::StripedRelabel& relabel,
                             std::span<const Gid> roots, const Replay& replay) {
  Span span("bench", "check_reference");
  relabel.apply(el);
  const hg::Csr csr(el.n, el.edges);
  const auto n = static_cast<std::size_t>(el.n);

  const auto pr = hpcg::algos::ref::pagerank(csr, kPrIterations);
  bool ok = true;
  for (std::size_t v = 0; v < n; ++v) ok = ok && std::abs(pr[v] - replay.pr[v]) < 1e-9;
  report.check(ok, "pagerank vs algos::ref");

  for (std::size_t i = 0; i < roots.size(); ++i) {
    const auto expect = hpcg::algos::ref::bfs_levels(csr, relabel.to_new(roots[i]));
    ok = true;
    for (std::size_t v = 0; v < n; ++v) {
      const auto want = expect[v] < 0 ? hpcg::algos::BfsResult::kUnvisited : expect[v];
      ok = ok && replay.levels[i][v] == want;
    }
    report.check(ok, "bfs levels vs algos::ref, root " + std::to_string(roots[i]));
  }

  report.check(hpcg::algos::ref::connected_components(el) == replay.cc,
               "cc labels vs algos::ref");
}

}  // namespace

Report run_oneshot(const Options& options) {
  Report report;
  const int scale = options.small ? 12 : 18;
  const hcore::Grid grid(2, 2);

  std::vector<double> setup_s, generate_s, finish_s, partition_s, dist_build_s;
  hg::EdgeList el;
  std::optional<hcore::Partitioned2D> parts;
  std::vector<Gid> roots;
  std::vector<QueryRecord> warm(kRanks);
  std::vector<std::vector<QueryRecord>> records(kRanks);

  for (int s = 0; s < kSetups; ++s) {
    const bool last = s == kSetups - 1;
    parts.reset();
    el = {};
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

    std::vector<double> build(kRanks, 0.0);
    double t_ready = 0.0;
    Span run_span("comm", "Runtime::run");
    const auto parent = run_span.id();
    const double t_launch = now_s();
    hc::Runtime::run(kRanks, hc::Topology::aimos(kRanks), hc::CostModel{}, run_options(),
                     [&](hc::Comm& comm) {
      InheritParent inherit(parent);
      const auto r = static_cast<std::size_t>(comm.rank());
      const double tb = now_s();
      std::unique_ptr<hcore::Dist2DGraph> g;
      {
        Span span("core", "Dist2DGraph");
        g = std::make_unique<hcore::Dist2DGraph>(comm, *parts);
      }
      build[r] = now_s() - tb;
      {
        Span span("comm", "barrier");
        comm.barrier();
      }
      if (r == 0) t_ready = now_s();
      if (!last) return;

      const double tw = now_s();
      warm[r] = run_pass(*g, roots);
      std::vector<std::int64_t> passes{pass_count(now_s() - tw, options.seconds)};
      {
        Span span("comm", "broadcast");
        comm.broadcast(std::span<std::int64_t>(passes), 0);
      }
      for (std::int64_t p = 0; p < passes[0]; ++p) {
        Untraced untraced(options.trace && p % 2 == 1);
        records[r].push_back(run_pass(*g, roots));
      }
    });
    setup_s.push_back((t_partitioned - t0) + (t_ready - t_launch));
    generate_s.push_back(input.generate_s);
    finish_s.push_back(input.finish_s);
    partition_s.push_back(t_partitioned - tp);
    dist_build_s.push_back(*std::max_element(build.begin(), build.end()));
  }
  const double peak_mb = peak_rss_mb();

  const auto balance = hcore::partition_balance(*parts);
  const auto replay = modeled_replay(*parts, roots);
  const auto relabel = parts->relabel();
  parts.reset();

  check_passes(report, warm, records, replay);
  const auto edges = el.m();
  check_against_reference(report, std::move(el), relabel, roots, replay);

  const auto summary = summarize(records);
  add_replay_guards(report, replay, edges);
  report.notes.push_back("samples: setups=" + std::to_string(kSetups) +
                         " passes=" + std::to_string(summary.pass_s.size()) +
                         " queries=" + std::to_string(summary.query_s.size()));

  if (!options.trace) {
    add_pass_e2e(report, setup_s, summary, replay, peak_mb);
    return report;
  }

  init_layers(report);
  set_setup_layers(report, generate_s, finish_s, edges, partition_s, dist_build_s,
                   balance.edge_imbalance());
  set_pass_layers(report, summary, replay);
  add_trace_layers(report, Tracer::spans(), summary.pass_s);
  return report;
}

}  // namespace perfbench
