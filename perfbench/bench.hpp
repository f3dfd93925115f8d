// Shared pieces of the end-to-end benchmark: run options and the report it
// prints, the in-memory span tracer, the standard query pass, the modeled
// replay and small statistics helpers. The benchmark drives the system only
// through the public headers under src/.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "comm/runtime.hpp"
#include "core/dist2d.hpp"
#include "graph/types.hpp"

namespace perfbench {

using hpcg::graph::Gid;

// --- Run options and report ----------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured phase budget
  bool trace = false;     // per-layer run (spans on) instead of end-to-end
  bool small = false;     // tiny inputs for the benchmark's own test
  std::string out_dir = ".bench_out";
};

/// Every workload runs 4 ranks on a 2x2 grid with one kernel thread per
/// rank, so at most 4 threads or processes are busy at any time.
inline constexpr int kRanks = 4;
inline constexpr int kThreadsPerRank = 1;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Exact-count guards: printed on every run, identical for a given seed.
  std::vector<std::pair<std::string, std::string>> guards;
  /// Free-form lines printed before the result (sample counts and such).
  std::vector<std::string> notes;

  /// Counts `ok` as one attempted operation; a false one is a failure and
  /// its reason goes to stderr.
  void check(bool ok, const std::string& what);
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void guard(const std::string& name, const std::string& value) {
    guards.emplace_back(name, value);
  }
};

Report run_oneshot(const Options& options);
Report run_socket(const Options& options);
Report run_serve(const Options& options);

// --- Span tracer ----------------------------------------------------------
//
// The benchmark records one span around each public call it makes into the
// system (name, layer, start, end, parent span, request id). Spans stay in
// memory until the run ends. Off unless the run is traced; a thread can
// also suppress it for a stretch (the untraced half of the overhead probe).

struct SpanRecord {
  std::string layer;
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // serve request id, 0 = none
  int process = 0;            // 0 = benchmark process, r + 1 = socket rank r
  int thread = 0;
  bool async = false;         // request span: overlaps its siblings
};

class Tracer {
 public:
  static void enable(bool on);
  static bool enabled();
  /// Tracing is on and not suppressed on this thread.
  static bool active();
  /// Innermost open span on this thread (or the inherited parent).
  static std::uint64_t current();
  static std::uint64_t next_id();
  static void record(SpanRecord span);
  static std::vector<SpanRecord> spans();
  /// In a forked rank process: drop the spans inherited from the parent
  /// and draw ids from a range of this rank's own.
  static void become_child(int rank);
  /// Appends spans recorded elsewhere (a rank process's shard).
  static void merge(std::vector<SpanRecord> spans);

  // Thread-local nesting state, managed by Span / InheritParent.
  static void push(std::uint64_t id);
  static void pop();
  static void suppress(bool on);
  static int thread_index();
};

/// RAII span around one call. Inert when the tracer is not active.
class Span {
 public:
  Span(const char* layer, const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint64_t id() const { return record_.id; }
  /// Tags the span with a request id learned during the call.
  void set_request(std::uint64_t request) { record_.request = request; }

 private:
  bool live_ = false;
  SpanRecord record_;
};

/// Makes `parent` the enclosing span of everything this thread records
/// until destruction (rank threads and processes adopt the span that
/// spawned them).
class InheritParent {
 public:
  explicit InheritParent(std::uint64_t parent);
  ~InheritParent();
  InheritParent(const InheritParent&) = delete;
  InheritParent& operator=(const InheritParent&) = delete;

 private:
  bool live_ = false;
};

/// Suppresses tracing on this thread until destruction.
class Untraced {
 public:
  explicit Untraced(bool on) : on_(on) {
    if (on_) Tracer::suppress(true);
  }
  ~Untraced() {
    if (on_) Tracer::suppress(false);
  }
  Untraced(const Untraced&) = delete;
  Untraced& operator=(const Untraced&) = delete;

 private:
  bool on_;
};

/// Self time per layer: each synchronous span's duration minus the part of
/// its interval that its child spans cover.
std::map<std::string, double> self_times(const std::vector<SpanRecord>& spans);
void write_chrome_trace(const std::string& path, const std::vector<SpanRecord>& spans);
void write_span_shard(const std::string& path, const std::vector<SpanRecord>& spans);
std::vector<SpanRecord> read_span_shard(const std::string& path, int process);

// --- Clock, statistics, digests ------------------------------------------

/// CLOCK_MONOTONIC seconds, comparable across forked processes.
double now_s();
double median(std::vector<double> values);
/// Nearest-rank percentile (q in (0, 1]) of raw samples.
double percentile(std::vector<double> values, double q);
/// Peak resident set in MB: max of this process and its reaped children.
double peak_rss_mb();

std::uint64_t digest_bytes(const void* data, std::size_t size,
                           std::uint64_t h = 1469598103934665603ULL);
template <class T>
std::uint64_t digest(const std::vector<T>& v, std::uint64_t h = 1469598103934665603ULL) {
  return digest_bytes(v.data(), v.size() * sizeof(T), h);
}

std::string fmt(double value);

// --- Inputs ---------------------------------------------------------------

struct InputTimes {
  double generate_s = 0.0;
  double finish_s = 0.0;
};

/// RMAT (edge factor 16) from the run seed, self loops removed and
/// symmetrized: the graph every workload starts from.
hpcg::graph::EdgeList make_input(int scale, std::uint64_t seed, InputTimes* times);

/// `count` distinct seeded vertices of nonzero degree (original ids).
std::vector<Gid> pick_roots(const hpcg::graph::EdgeList& el, int count,
                            std::uint64_t seed);

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

// --- The standard query pass ---------------------------------------------
//
// One pass is PageRank (20 iterations), BFS from each of 8 roots, then
// connected components. Every rank times each query locally and digests
// its local answer after the clock stops.

inline constexpr int kBfsRoots = 8;
inline constexpr int kPrIterations = 20;
inline constexpr int kQueries = 2 + kBfsRoots;
inline constexpr int kQueryPr = 0;
inline constexpr int kQueryCc = kQueries - 1;

struct QueryRecord {
  std::array<double, kQueries> seconds{};
  std::array<std::uint64_t, kQueries> digest{};
  std::int64_t bfs_depth_sum = 0;
  int cc_iterations = 0;
};

/// LID-indexed answers of one pass, kept for host-side checks.
struct PassAnswers {
  std::vector<double> pr;
  std::vector<std::vector<std::int64_t>> levels;
  std::vector<Gid> cc;
};

QueryRecord run_pass(hpcg::core::Dist2DGraph& g, std::span<const Gid> roots,
                     PassAnswers* keep = nullptr);

/// Run options every workload uses: one kernel thread per rank.
hpcg::comm::RunOptions run_options();

/// Per-pass aggregates over the timed passes of all ranks:
/// records[rank][pass].
struct PassSummary {
  double solve_s = 0.0;        // median over passes of summed per-query max
  double pr_s = 0.0;           // medians over passes, max over ranks
  double bfs_s = 0.0;
  double cc_s = 0.0;
  std::vector<double> query_s;  // every query's max-over-ranks latency
  std::vector<double> pass_s;   // per pass
};
PassSummary summarize(const std::vector<std::vector<QueryRecord>>& records);

/// Number of timed passes: fills `seconds` at the warm-up pass's pace.
std::int64_t pass_count(double warm_s, double seconds);

/// Modeled replay: one standard pass on shm over `parts` under the figure
/// benchmarks' cost model, counted exactly, with the answers assembled on
/// the host in striped-GID order.
struct Replay {
  double modeled_s = 0.0;
  double modeled_comp_s = 0.0;
  double modeled_comm_s = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
  std::int64_t bfs_depth_sum = 0;
  int cc_iterations = 0;
  std::vector<QueryRecord> per_rank;  // digests per rank
  std::vector<double> pr;             // striped-GID indexed
  std::vector<std::vector<std::int64_t>> levels;
  std::vector<Gid> cc;
  std::uint64_t global_digest = 0;
};
Replay modeled_replay(const hpcg::core::Partitioned2D& parts,
                      std::span<const Gid> roots);

/// Digest of a pass's global answers in striped-GID order.
std::uint64_t global_digest(const std::vector<double>& pr,
                            const std::vector<std::vector<std::int64_t>>& levels,
                            const std::vector<Gid>& cc);

/// Prints the replay's exact counts as guards (identical for a seed).
void add_replay_guards(Report& report, const Replay& replay, std::int64_t edges);

/// Checks every query of the warm-up pass and of the timed passes
/// (records[rank][pass]): each rank's answer digest must equal the
/// replay's. One operation per query.
void check_passes(Report& report, const std::vector<QueryRecord>& warm,
                  const std::vector<std::vector<QueryRecord>>& records, const Replay& replay);

/// The end-to-end metrics of a workload that runs query passes.
void add_pass_e2e(Report& report, const std::vector<double>& setup_s,
                  const PassSummary& summary, const Replay& replay, double peak_mb);

/// Sets every per-layer metric to zero so each traced run prints the full
/// list; workloads then overwrite the layers they exercise.
void init_layers(Report& report);
void set_layer(Report& report, const std::string& name, double value);
/// The graph.* and core.* layers, each time the median over the setups.
void set_setup_layers(Report& report, const std::vector<double>& generate_s,
                      const std::vector<double>& finish_s, std::int64_t edges,
                      const std::vector<double>& partition_s,
                      const std::vector<double>& dist_build_s, double edge_imbalance);
/// The algos.* and comm.* layers: wall times from `summary`, exact counts
/// and modeled times from `replay`.
void set_pass_layers(Report& report, const PassSummary& summary, const Replay& replay);
/// Self time per layer, span count, and the tracing overhead: traced runs
/// trace the even measurement units (passes or request windows) and leave
/// the odd ones untraced, so `units` alternates traced / untraced.
void add_trace_layers(Report& report, const std::vector<SpanRecord>& spans,
                      const std::vector<double>& units);

}  // namespace perfbench
