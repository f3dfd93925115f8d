#include "bench.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "algos/bfs.hpp"
#include "algos/cc.hpp"
#include "algos/pagerank.hpp"
#include "comm/cost_model.hpp"
#include "comm/topology.hpp"
#include "graph/edge_list.hpp"
#include "graph/generators.hpp"
#include "util/prng.hpp"

namespace perfbench {

namespace hg = hpcg::graph;
namespace hc = hpcg::comm;
namespace hcore = hpcg::core;
namespace ha = hpcg::algos;

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::cerr << "check failed: " << what << "\n";
  }
}

// --- Tracer ---------------------------------------------------------------

namespace {

std::atomic<bool> g_enabled{false};
std::mutex g_mutex;
std::vector<SpanRecord> g_spans;  // guarded by g_mutex
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<int> g_next_thread{0};
int g_process = 0;
thread_local std::vector<std::uint64_t> t_stack;
thread_local int t_suppress = 0;
thread_local int t_thread = -1;

}  // namespace

void Tracer::enable(bool on) { g_enabled.store(on); }
bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }
bool Tracer::active() { return enabled() && t_suppress == 0; }
std::uint64_t Tracer::current() { return t_stack.empty() ? 0 : t_stack.back(); }
std::uint64_t Tracer::next_id() { return g_next_id.fetch_add(1); }

void Tracer::record(SpanRecord span) {
  std::lock_guard lock(g_mutex);
  g_spans.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::spans() {
  std::lock_guard lock(g_mutex);
  return g_spans;
}

void Tracer::become_child(int rank) {
  std::lock_guard lock(g_mutex);
  g_spans.clear();
  g_next_id.store((static_cast<std::uint64_t>(rank) + 1) << 40);
  g_process = rank + 1;
}

void Tracer::merge(std::vector<SpanRecord> spans) {
  std::lock_guard lock(g_mutex);
  for (auto& s : spans) g_spans.push_back(std::move(s));
}

void Tracer::push(std::uint64_t id) { t_stack.push_back(id); }
void Tracer::pop() {
  if (!t_stack.empty()) t_stack.pop_back();
}
void Tracer::suppress(bool on) { t_suppress += on ? 1 : -1; }
int Tracer::thread_index() {
  if (t_thread < 0) t_thread = g_next_thread.fetch_add(1);
  return t_thread;
}

Span::Span(const char* layer, const char* name, std::uint64_t request) {
  if (!Tracer::active()) return;
  live_ = true;
  record_.layer = layer;
  record_.name = name;
  record_.id = Tracer::next_id();
  record_.parent = Tracer::current();
  record_.request = request;
  record_.process = g_process;
  record_.thread = Tracer::thread_index();
  Tracer::push(record_.id);
  record_.start_s = now_s();
}

Span::~Span() {
  if (!live_) return;
  record_.end_s = now_s();
  Tracer::pop();
  Tracer::record(std::move(record_));
}

InheritParent::InheritParent(std::uint64_t parent) {
  if (!Tracer::enabled()) return;
  live_ = true;
  Tracer::push(parent);
}

InheritParent::~InheritParent() {
  if (live_) Tracer::pop();
}

namespace {

double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double lo = 0.0;
  double hi = -1.0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (!open || a > hi) {
      if (open) total += hi - lo;
      lo = a;
      hi = b;
      open = true;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (open) total += hi - lo;
  return total;
}

}  // namespace

std::map<std::string, double> self_times(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const auto& s : spans) children[s.parent].push_back(&s);
  std::map<std::string, double> out;
  // Request spans overlap each other; their layer is charged the time at
  // least one of them was open.
  std::map<std::string, std::vector<std::pair<double, double>>> async_by_layer;
  for (const auto& s : spans) {
    if (s.async) {
      async_by_layer[s.layer].emplace_back(s.start_s, s.end_s);
      continue;
    }
    std::vector<std::pair<double, double>> covered;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const auto* c : it->second) {
        const double a = std::max(c->start_s, s.start_s);
        const double b = std::min(c->end_s, s.end_s);
        if (b > a) covered.emplace_back(a, b);
      }
    }
    out[s.layer] += std::max(0.0, (s.end_s - s.start_s) - union_length(covered));
  }
  for (auto& [layer, iv] : async_by_layer) out[layer] += union_length(std::move(iv));
  return out;
}

void write_chrome_trace(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write trace " << path << "\n";
    return;
  }
  double t0 = spans.empty() ? 0.0 : spans.front().start_s;
  for (const auto& s : spans) t0 = std::min(t0, s.start_s);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    out << (i ? ",\n" : "") << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer
        << "\",\"ph\":\"X\",\"ts\":" << fmt((s.start_s - t0) * 1e6)
        << ",\"dur\":" << fmt((s.end_s - s.start_s) * 1e6) << ",\"pid\":" << s.process
        << ",\"tid\":" << s.thread << ",\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"async\":" << (s.async ? "true" : "false") << "}}";
  }
  out << "\n]}\n";
}

void write_span_shard(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  for (const auto& s : spans) {
    out << s.layer << '\t' << s.name << '\t' << fmt(s.start_s) << '\t' << fmt(s.end_s)
        << '\t' << s.id << '\t' << s.parent << '\t' << s.request << '\t' << s.thread
        << '\t' << s.async << '\n';
  }
}

std::vector<SpanRecord> read_span_shard(const std::string& path, int process) {
  std::vector<SpanRecord> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    SpanRecord s;
    std::getline(fields, s.layer, '\t');
    std::getline(fields, s.name, '\t');
    fields >> s.start_s >> s.end_s >> s.id >> s.parent >> s.request >> s.thread >> s.async;
    if (!fields) continue;
    s.process = process;
    out.push_back(std::move(s));
  }
  return out;
}

// --- Clock, statistics, digests ------------------------------------------

double now_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double peak_rss_mb() {
  rusage self{};
  rusage kids{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) / 1024.0;
}

std::uint64_t digest_bytes(const void* data, std::size_t size, std::uint64_t h) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * kPrime;
  }
  for (; i < size; ++i) h = (h ^ p[i]) * kPrime;
  return h;
}

std::string fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", value);
  return buf;
}

// --- Inputs ---------------------------------------------------------------

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  return hpcg::util::splitmix64(hpcg::util::splitmix64(seed) + stream);
}

hg::EdgeList make_input(int scale, std::uint64_t seed, InputTimes* times) {
  hg::RmatParams params;
  params.scale = scale;
  params.edge_factor = 16;
  params.seed = mix_seed(seed, 1);
  InputTimes local;
  double t = now_s();
  hg::EdgeList el;
  {
    Span span("graph", "generate_rmat");
    el = hg::generate_rmat(params);
  }
  local.generate_s = now_s() - t;
  t = now_s();
  {
    Span span("graph", "remove_self_loops");
    hg::remove_self_loops(el);
  }
  {
    Span span("graph", "symmetrize");
    hg::symmetrize(el);
  }
  local.finish_s = now_s() - t;
  if (times) *times = local;
  return el;
}

std::vector<Gid> pick_roots(const hg::EdgeList& el, int count, std::uint64_t seed) {
  std::vector<std::int64_t> degree;
  {
    Span span("graph", "out_degrees");
    degree = hg::out_degrees(el);
  }
  std::vector<Gid> roots;
  hpcg::util::Xoshiro256 rng(seed);
  while (static_cast<int>(roots.size()) < count) {
    const auto v = static_cast<Gid>(rng.next_below(static_cast<std::uint64_t>(el.n)));
    if (degree[static_cast<std::size_t>(v)] > 0 &&
        std::find(roots.begin(), roots.end(), v) == roots.end()) {
      roots.push_back(v);
    }
  }
  return roots;
}

// --- Standard pass ----------------------------------------------------------

hc::RunOptions run_options() {
  hc::RunOptions options;
  options.kernel.threads = kThreadsPerRank;
  return options;
}

QueryRecord run_pass(hcore::Dist2DGraph& g, std::span<const Gid> roots, PassAnswers* keep) {
  QueryRecord rec;
  {
    const double t = now_s();
    std::vector<double> pr;
    {
      Span span("algos", "pagerank");
      pr = ha::pagerank(g, kPrIterations);
    }
    rec.seconds[kQueryPr] = now_s() - t;
    rec.digest[kQueryPr] = digest(pr);
    if (keep) keep->pr = std::move(pr);
  }
  for (int i = 0; i < kBfsRoots; ++i) {
    const double t = now_s();
    ha::BfsResult r;
    {
      Span span("algos", "bfs");
      r = ha::bfs(g, roots[static_cast<std::size_t>(i)]);
    }
    rec.seconds[1 + i] = now_s() - t;
    rec.digest[1 + i] = digest(r.level);
    rec.bfs_depth_sum += r.depth;
    if (keep) keep->levels.push_back(std::move(r.level));
  }
  {
    const double t = now_s();
    ha::CcResult r;
    {
      Span span("algos", "connected_components");
      r = ha::connected_components(g, ha::CcOptions::all_push());
    }
    rec.seconds[kQueryCc] = now_s() - t;
    rec.digest[kQueryCc] = digest(r.label);
    rec.cc_iterations = r.iterations;
    if (keep) keep->cc = std::move(r.label);
  }
  return rec;
}

PassSummary summarize(const std::vector<std::vector<QueryRecord>>& records) {
  PassSummary out;
  if (records.empty()) return out;
  const std::size_t passes = records.front().size();
  std::vector<double> pr;
  std::vector<double> bfs;
  std::vector<double> cc;
  for (std::size_t p = 0; p < passes; ++p) {
    std::array<double, kQueries> worst{};
    for (const auto& rank : records) {
      for (int q = 0; q < kQueries; ++q) worst[q] = std::max(worst[q], rank[p].seconds[q]);
    }
    double total = 0.0;
    double bfs_total = 0.0;
    for (int q = 0; q < kQueries; ++q) {
      total += worst[q];
      out.query_s.push_back(worst[q]);
      if (q != kQueryPr && q != kQueryCc) bfs_total += worst[q];
    }
    out.pass_s.push_back(total);
    pr.push_back(worst[kQueryPr]);
    bfs.push_back(bfs_total);
    cc.push_back(worst[kQueryCc]);
  }
  out.solve_s = median(out.pass_s);
  out.pr_s = median(pr);
  out.bfs_s = median(bfs);
  out.cc_s = median(cc);
  return out;
}

std::int64_t pass_count(double warm_s, double seconds) {
  const double n = std::ceil(seconds / std::max(warm_s, 1e-3));
  return static_cast<std::int64_t>(std::clamp(n, 5.0, 400.0));
}

std::uint64_t global_digest(const std::vector<double>& pr,
                            const std::vector<std::vector<std::int64_t>>& levels,
                            const std::vector<Gid>& cc) {
  std::uint64_t h = digest(pr);
  for (const auto& l : levels) h = digest(l, h);
  return digest(cc, h);
}

Replay modeled_replay(const hcore::Partitioned2D& parts, std::span<const Gid> roots) {
  Replay out;
  const auto n = static_cast<std::size_t>(parts.n());
  const int ranks = parts.grid().ranks();
  out.per_rank.resize(static_cast<std::size_t>(ranks));
  out.pr.assign(n, 0.0);
  out.levels.assign(roots.size(), std::vector<std::int64_t>(n, 0));
  out.cc.assign(n, 0);
  // The figure benchmarks' cost model (bench/harness.hpp bench_cost with
  // alpha 1e-3): compute charged per work item, so modeled time and traffic
  // are exact functions of the input.
  constexpr double kAlpha = 1e-3;
  hc::CostParams params;
  params.software_alpha_s *= kAlpha;
  params.kernel_launch_s *= kAlpha;
  params.compute_scale = 0.0;
  params.per_edge_s = 2e-10;
  params.per_vertex_s = 5e-10;
  const auto topo = hc::Topology::aimos(ranks).with_alpha_scale(kAlpha);
  hc::RunStats stats;
  {
    Span span("comm", "Runtime::run");
    const auto parent = span.id();
    stats = hc::Runtime::run(ranks, topo, hc::CostModel(params), run_options(),
                             [&](hc::Comm& comm) {
      InheritParent inherit(parent);
      std::unique_ptr<hcore::Dist2DGraph> g;
      {
        Span build("core", "Dist2DGraph");
        g = std::make_unique<hcore::Dist2DGraph>(comm, parts);
      }
      comm.reset_clocks();
      PassAnswers answers;
      out.per_rank[static_cast<std::size_t>(comm.rank())] = run_pass(*g, roots, &answers);
      // Host-side collection without communication, so the run's traffic
      // is exactly one pass: each row group's first rank writes its rows.
      if (g->rank_r() == 0) {
        for (auto l = g->row_lid_begin(); l < g->row_lid_end(); ++l) {
          const auto gid = static_cast<std::size_t>(g->lids().to_gid(l));
          const auto li = static_cast<std::size_t>(l);
          out.pr[gid] = answers.pr[li];
          for (std::size_t r = 0; r < roots.size(); ++r) out.levels[r][gid] = answers.levels[r][li];
          out.cc[gid] = answers.cc[li];
        }
      }
    });
  }
  out.modeled_s = stats.makespan();
  out.modeled_comp_s = stats.max_comp();
  out.modeled_comm_s = stats.max_comm();
  out.bytes = stats.bytes;
  out.messages = stats.messages;
  out.bfs_depth_sum = out.per_rank.front().bfs_depth_sum;
  out.cc_iterations = out.per_rank.front().cc_iterations;
  out.global_digest = global_digest(out.pr, out.levels, out.cc);
  return out;
}

void add_replay_guards(Report& report, const Replay& replay, std::int64_t edges) {
  char modeled[64];
  std::snprintf(modeled, sizeof modeled, "%.17g", replay.modeled_s);
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(replay.global_digest));
  report.guard("modeled_s", modeled);
  report.guard("comm.bytes", std::to_string(replay.bytes));
  report.guard("comm.messages", std::to_string(replay.messages));
  report.guard("graph.edges", std::to_string(edges));
  report.guard("algos.bfs_depth_sum", std::to_string(replay.bfs_depth_sum));
  report.guard("algos.cc_iterations", std::to_string(replay.cc_iterations));
  report.guard("answers.digest", hex);
}

void check_passes(Report& report, const std::vector<QueryRecord>& warm,
                  const std::vector<std::vector<QueryRecord>>& records, const Replay& replay) {
  const auto passes = records.front().size();
  for (std::size_t p = 0; p <= passes; ++p) {
    for (int q = 0; q < kQueries; ++q) {
      bool ok = true;
      for (std::size_t r = 0; r < records.size(); ++r) {
        const auto& rec = p == 0 ? warm[r] : records[r][p - 1];
        ok = ok && rec.digest[q] == replay.per_rank[r].digest[q];
      }
      report.check(ok, "pass " + std::to_string(p) + " query " + std::to_string(q) +
                           " differs from the shm replay");
    }
  }
}

void add_pass_e2e(Report& report, const std::vector<double>& setup_s,
                  const PassSummary& summary, const Replay& replay, double peak_mb) {
  report.e2e("setup_s", median(setup_s), "s");
  report.e2e("solve_s", summary.solve_s, "s");
  report.e2e("modeled_s", replay.modeled_s, "s");
  report.e2e("read_p50_ms", median(summary.query_s) * 1e3, "ms");
  report.e2e("peak_rss_mb", peak_mb, "MB");
}

// --- Per-layer metric list ----------------------------------------------------

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// The per_layer list of BENCHMARK.json, in order.
constexpr LayerMetric kLayerMetrics[] = {
    {"graph.generate_s", "s"},
    {"graph.finish_s", "s"},
    {"graph.edges", "count"},
    {"core.partition_s", "s"},
    {"core.dist_build_s", "s"},
    {"core.edge_imbalance", "ratio"},
    {"algos.pr_s", "s"},
    {"algos.bfs_s", "s"},
    {"algos.cc_s", "s"},
    {"algos.bfs_depth_sum", "count"},
    {"algos.cc_iterations", "count"},
    {"comm.bytes", "bytes"},
    {"comm.messages", "count"},
    {"comm.modeled_comp_s", "s"},
    {"comm.modeled_comm_s", "s"},
    {"transport.launch_s", "s"},
    {"transport.comm_wall_s", "s"},
    {"transport.comp_wall_s", "s"},
    {"transport.bytes_rank0", "bytes"},
    {"transport.messages_rank0", "count"},
    {"serve.queue_ms_p50", "ms"},
    {"serve.exec_ms_p50.bfs", "ms"},
    {"serve.exec_ms_p50.msbfs", "ms"},
    {"serve.exec_ms_p50.pr", "ms"},
    {"serve.exec_ms_p50.cc", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.bfs_batch_mean", "sources"},
    {"serve.rejected", "count"},
    {"serve.read_p99_ms", "ms"},
    {"serve.read_samples", "count"},
    {"serve.commit_p50_ms", "ms"},
    {"serve.commit_p90_ms", "ms"},
    {"serve.commit_samples", "count"},
    {"serve.throughput_rps", "req/s"},
    {"stream.commit_exec_ms_p50", "ms"},
    {"stream.incremental_ratio", "ratio"},
    {"stream.edges.inserted", "count"},
    {"stream.edges.deleted", "count"},
    {"stream.epochs", "count"},
    {"self.graph_s", "s"},
    {"self.core_s", "s"},
    {"self.algos_s", "s"},
    {"self.comm_s", "s"},
    {"self.transport_s", "s"},
    {"self.serve_s", "s"},
    {"self.stream_s", "s"},
    {"self.bench_s", "s"},
    {"trace.spans", "count"},
    {"trace.solve_traced_s", "s"},
    {"trace.solve_untraced_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.overhead_pct", "%"},
};

}  // namespace

void init_layers(Report& report) {
  report.per_layer.clear();
  for (const auto& m : kLayerMetrics) report.layer(m.name, 0.0, m.unit);
}

void set_layer(Report& report, const std::string& name, double value) {
  for (auto& m : report.per_layer) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

void set_setup_layers(Report& report, const std::vector<double>& generate_s,
                      const std::vector<double>& finish_s, std::int64_t edges,
                      const std::vector<double>& partition_s,
                      const std::vector<double>& dist_build_s, double edge_imbalance) {
  set_layer(report, "graph.generate_s", median(generate_s));
  set_layer(report, "graph.finish_s", median(finish_s));
  set_layer(report, "graph.edges", static_cast<double>(edges));
  set_layer(report, "core.partition_s", median(partition_s));
  set_layer(report, "core.dist_build_s", median(dist_build_s));
  set_layer(report, "core.edge_imbalance", edge_imbalance);
}

void set_pass_layers(Report& report, const PassSummary& summary, const Replay& replay) {
  set_layer(report, "algos.pr_s", summary.pr_s);
  set_layer(report, "algos.bfs_s", summary.bfs_s);
  set_layer(report, "algos.cc_s", summary.cc_s);
  set_layer(report, "algos.bfs_depth_sum", static_cast<double>(replay.bfs_depth_sum));
  set_layer(report, "algos.cc_iterations", replay.cc_iterations);
  set_layer(report, "comm.bytes", static_cast<double>(replay.bytes));
  set_layer(report, "comm.messages", static_cast<double>(replay.messages));
  set_layer(report, "comm.modeled_comp_s", replay.modeled_comp_s);
  set_layer(report, "comm.modeled_comm_s", replay.modeled_comm_s);
}

void add_trace_layers(Report& report, const std::vector<SpanRecord>& spans,
                      const std::vector<double>& units) {
  std::vector<double> traced, untraced;
  for (std::size_t i = 0; i < units.size(); ++i) {
    (i % 2 == 0 ? traced : untraced).push_back(units[i]);
  }
  const double traced_s = median(traced);
  const double untraced_s = median(untraced);
  const auto self = self_times(spans);
  const auto get = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second;
  };
  set_layer(report, "self.graph_s", get("graph"));
  set_layer(report, "self.core_s", get("core"));
  set_layer(report, "self.algos_s", get("algos"));
  set_layer(report, "self.comm_s", get("comm"));
  set_layer(report, "self.transport_s", get("comm/transport"));
  set_layer(report, "self.serve_s", get("serve"));
  set_layer(report, "self.stream_s", get("stream"));
  set_layer(report, "self.bench_s", get("bench"));
  set_layer(report, "trace.spans", static_cast<double>(spans.size()));
  set_layer(report, "trace.solve_traced_s", traced_s);
  set_layer(report, "trace.solve_untraced_s", untraced_s);
  set_layer(report, "trace.overhead_s", traced_s - untraced_s);
  set_layer(report, "trace.overhead_pct",
            untraced_s > 0 ? 100.0 * (traced_s - untraced_s) / untraced_s : 0.0);
}

}  // namespace perfbench
