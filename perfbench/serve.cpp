// `serve`: a resident Session + Service on RMAT scale 16, driven by one
// closed-loop client that keeps 8 requests in flight under 8 client ids.
// Each completion triggers the next submit; a request's latency runs from
// submit until the client observes its result. The mix (BFS 60, MS-BFS 10,
// PageRank 10, CC 10, mutate 10) interleaves commits with reads, so a read
// gain that costs commits (invalidation, repair, CSR rebuild) shows. Half
// the BFS roots come from a 64-vertex hot set, so the cache and BFS
// coalescing have shared work to find.
#include <algorithm>
#include <array>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <unordered_map>

#include "algos/reference.hpp"
#include "bench.hpp"
#include "core/balance.hpp"
#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "serve/service.hpp"
#include "serve/session.hpp"
#include "stream/mutation_log.hpp"
#include "util/prng.hpp"

namespace perfbench {

namespace hg = hpcg::graph;
namespace hcore = hpcg::core;
namespace hs = hpcg::serve;
namespace hst = hpcg::stream;

namespace {

constexpr int kSetups = 5;  // setup_s is their median (each well under a second)
constexpr int kInFlight = 8;
constexpr std::size_t kWindow = 100;  // completions per solve_s window
constexpr int kHotSet = 64;
constexpr std::size_t kMsBfsRoots = 8;
constexpr int kMutateOps = 64;
constexpr int kMutateDeletePct = 30;
constexpr int kBfsCheckEvery = 40;  // about one BFS answer in this many is checked

struct Planned {
  hs::Request request;
  bool check_bfs = false;
};

/// The run's request sequence, a pure function of the input and the seed.
std::vector<Planned> plan_requests(const hg::EdgeList& el, std::size_t count,
                                   std::uint64_t seed) {
  const auto degree = hg::out_degrees(el);
  hpcg::util::Xoshiro256 rng(mix_seed(seed, 3));
  const auto any_vertex = [&] {
    for (;;) {
      const auto v = static_cast<Gid>(rng.next_below(static_cast<std::uint64_t>(el.n)));
      if (degree[static_cast<std::size_t>(v)] > 0) return v;
    }
  };
  const auto hot = pick_roots(el, kHotSet, mix_seed(seed, 4));
  // Each block of 100 requests is a shuffled deck holding the mix exactly,
  // so every solve_s window and every seed carry the same amount of work.
  std::vector<int> deck(100);
  std::iota(deck.begin(), deck.end(), 0);
  std::vector<Planned> plan(count);
  std::uint64_t batch = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (i % deck.size() == 0) {
      for (std::size_t j = deck.size() - 1; j > 0; --j) {
        std::swap(deck[j], deck[rng.next_below(j + 1)]);
      }
    }
    auto& p = plan[i];
    auto& r = p.request;
    const auto pick = deck[i % deck.size()];
    if (pick < 60) {
      r.algo = hs::Algo::kBfs;
      r.roots = {rng.next_below(2) == 0 ? hot[rng.next_below(kHotSet)] : any_vertex()};
      p.check_bfs = rng.next_below(kBfsCheckEvery) == 0;
    } else if (pick < 70) {
      r.algo = hs::Algo::kMsBfs;
      while (r.roots.size() < kMsBfsRoots) {
        const auto v = any_vertex();
        if (std::find(r.roots.begin(), r.roots.end(), v) == r.roots.end()) r.roots.push_back(v);
      }
    } else if (pick < 80) {
      r.algo = hs::Algo::kPageRank;
      r.iterations = 5;
    } else if (pick < 90) {
      r.algo = hs::Algo::kCc;
    } else {
      r.algo = hs::Algo::kMutate;
      Span span("stream", "generate_ops");
      r.ops = hst::generate_ops(mix_seed(seed, 5), batch++, kMutateOps, kMutateDeletePct, el.n,
                                &el);
    }
  }
  return plan;
}

/// Host mirror of the undirected edge multiset (the semantics of
/// stream::apply_to_edge_list: an insert adds a copy, a delete removes one
/// copy if any), indexed so that replaying every commit stays cheap.
class Mirror {
 public:
  explicit Mirror(const hg::EdgeList& el) : n_(el.n) {
    std::vector<hg::Edge> all;
    for (const auto& e : el.edges) {
      if (e.u < e.v) all.push_back(e);
    }
    std::sort(all.begin(), all.end());
    for (const auto& e : all) {
      if (pairs_.empty() || !(pairs_.back() == e)) {
        pairs_.push_back(e);
        count_.push_back(0);
      }
      ++count_.back();
    }
  }

  void apply(std::span<const hst::EdgeOp> ops) {
    for (const auto& op : ops) {
      const hg::Edge key{std::min(op.u, op.v), std::max(op.u, op.v)};
      const auto it = std::lower_bound(pairs_.begin(), pairs_.end(), key);
      int& c = (it != pairs_.end() && *it == key)
                   ? count_[static_cast<std::size_t>(it - pairs_.begin())]
                   : extra_[{key.u, key.v}];
      if (op.kind == hst::EdgeOpKind::kInsert) {
        ++c;
      } else if (c > 0) {
        --c;
      }
    }
  }

  /// Component of every vertex, labeled by its smallest member.
  std::vector<Gid> components() const {
    std::vector<Gid> parent(static_cast<std::size_t>(n_));
    std::iota(parent.begin(), parent.end(), Gid{0});
    const auto find = [&](Gid x) {
      while (parent[static_cast<std::size_t>(x)] != x) {
        auto& p = parent[static_cast<std::size_t>(x)];
        p = parent[static_cast<std::size_t>(p)];
        x = p;
      }
      return x;
    };
    for_each_live([&](Gid u, Gid v) {
      const Gid a = find(u);
      const Gid b = find(v);
      if (a != b) parent[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
    });
    std::vector<Gid> label(parent.size());
    for (Gid v = 0; v < n_; ++v) label[static_cast<std::size_t>(v)] = find(v);
    return label;
  }

  hg::Csr csr() const {
    std::vector<hg::Edge> edges;
    for_each_live([&](Gid u, Gid v) {
      edges.push_back({u, v});
      edges.push_back({v, u});
    });
    return hg::Csr(n_, edges);
  }

 private:
  template <class F>
  void for_each_live(F&& f) const {
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
      if (count_[i] > 0) f(pairs_[i].u, pairs_[i].v);
    }
    for (const auto& [key, c] : extra_) {
      if (c > 0) f(key.first, key.second);
    }
  }

  Gid n_;
  std::vector<hg::Edge> pairs_;  // sorted, u < v
  std::vector<int> count_;       // copies of pairs_[i]
  std::map<std::pair<Gid, Gid>, int> extra_;  // pairs first created by inserts
};

/// Two labelings describe the same partition into components.
bool same_partition(const std::vector<Gid>& a, const std::vector<Gid>& b) {
  if (a.size() != b.size()) return false;
  std::unordered_map<Gid, Gid> ab;
  std::unordered_map<Gid, Gid> ba;
  for (std::size_t v = 0; v < a.size(); ++v) {
    if (ab.emplace(a[v], b[v]).first->second != b[v]) return false;
    if (ba.emplace(b[v], a[v]).first->second != a[v]) return false;
  }
  return true;
}

/// What the closed loop observed.
struct Load {
  double start_s = 0.0;
  double end_s = 0.0;
  std::vector<double> done_s;  // completion times, in completion order
  std::vector<double> read_ms;
  std::vector<double> commit_ms;
  std::vector<double> queue_ms;  // executed (not cached) requests
  std::map<hs::Algo, std::vector<double>> exec_ms;
  std::int64_t completed = 0;
  std::vector<std::pair<std::uint64_t, std::size_t>> commits;  // (epoch, plan index)
  struct Answer {
    std::uint64_t epoch = 0;
    std::size_t plan = 0;
    std::vector<Gid> cc;                // CC answers
    std::vector<std::int64_t> levels;  // sampled BFS answers
  };
  std::vector<Answer> answers;
};

Load drive(hs::Service& service, const std::vector<Planned>& plan, bool trace,
           Report& report) {
  struct Slot {
    bool busy = false;
    std::size_t plan = 0;
    hs::Ticket ticket;
    double submit_s = 0.0;
  };
  std::array<Slot, kInFlight> slots;
  Load load;
  std::size_t next = 0;
  std::size_t finished = 0;
  // Traced runs trace the even request windows only; the odd ones measure
  // the tracing overhead.
  const auto untraced_now = [&] { return trace && (finished / kWindow) % 2 == 1; };

  const auto submit = [&](std::size_t k) {
    Slot& s = slots[k];
    while (next < plan.size()) {
      s.plan = next++;
      hs::Request request = plan[s.plan].request;
      request.client = "c" + std::to_string(k);
      Untraced untraced(untraced_now());
      s.submit_s = now_s();
      try {
        Span span("serve", "Service::submit");
        s.ticket = service.submit(std::move(request));
        span.set_request(s.ticket.id);
        s.busy = true;
        return;
      } catch (const std::exception& e) {
        ++finished;
        report.check(false, std::string("request rejected: ") + e.what());
      }
    }
  };

  const auto complete = [&](Slot& s) {
    const double t = now_s();
    s.busy = false;
    const bool traced = Tracer::enabled() && !untraced_now();
    ++finished;
    load.done_s.push_back(t);
    const auto& planned = plan[s.plan];
    const auto algo = planned.request.algo;
    try {
      const hs::Response& r = s.ticket.result.get();
      report.check(true, "");
      ++load.completed;
      if (!r.from_cache) {
        load.queue_ms.push_back(r.queue_s * 1e3);
        load.exec_ms[algo].push_back(r.exec_s * 1e3);
      }
      const double ms = (t - s.submit_s) * 1e3;
      if (algo == hs::Algo::kMutate) {
        load.commit_ms.push_back(ms);
        load.commits.emplace_back(r.epoch, s.plan);
      } else {
        load.read_ms.push_back(ms);
      }
      if (algo == hs::Algo::kCc) load.answers.push_back({r.epoch, s.plan, r.component, {}});
      if (planned.check_bfs) load.answers.push_back({r.epoch, s.plan, {}, r.levels.front()});
    } catch (const std::exception& e) {
      report.check(false, std::string("request failed: ") + e.what());
    }
    if (traced) {
      SpanRecord span;
      span.layer = algo == hs::Algo::kMutate ? "stream" : "serve";
      span.name = std::string("request:") + hs::to_string(algo);
      span.start_s = s.submit_s;
      span.end_s = t;
      span.id = Tracer::next_id();
      span.request = s.ticket.id;
      span.thread = Tracer::thread_index();
      span.async = true;
      Tracer::record(std::move(span));
    }
  };

  load.start_s = now_s();
  for (std::size_t k = 0; k < kInFlight; ++k) submit(k);
  while (finished < plan.size()) {
    bool progressed = false;
    Slot* oldest = nullptr;
    for (std::size_t k = 0; k < kInFlight; ++k) {
      Slot& s = slots[k];
      if (!s.busy) continue;
      if (s.ticket.result.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        complete(s);
        submit(k);
        progressed = true;
      } else if (!oldest || s.submit_s < oldest->submit_s) {
        oldest = &s;
      }
    }
    if (progressed) continue;
    if (!oldest) break;
    // The scheduler always runs the batch holding the oldest pending request
    // next, so nothing younger completes first (cache hits complete inside
    // submit and are swept above): blocking on the oldest loses no time.
    // The timeout only guards that reasoning.
    oldest->ticket.result.wait_for(std::chrono::milliseconds(20));
  }
  load.end_s = now_s();
  return load;
}

/// Replays the committed batches on a host mirror in epoch order and checks
/// every CC answer and the sampled BFS answers against it.
void check_answers(Report& report, const hg::EdgeList& el, const std::vector<Planned>& plan,
                   Load& load) {
  Span span("bench", "check_answers");
  std::sort(load.commits.begin(), load.commits.end());
  for (std::size_t i = 0; i < load.commits.size(); ++i) {
    report.check(load.commits[i].first == i + 1 &&
                     (i == 0 || load.commits[i].second > load.commits[i - 1].second),
                 "commit " + std::to_string(i + 1) + " out of submission order");
  }
  std::sort(load.answers.begin(), load.answers.end(),
            [](const auto& a, const auto& b) { return a.epoch < b.epoch; });
  Mirror mirror(el);
  std::uint64_t epoch = 0;
  std::uint64_t labels_epoch = ~std::uint64_t{0};
  std::uint64_t csr_epoch = ~std::uint64_t{0};
  std::vector<Gid> labels;
  hg::Csr csr;
  for (const auto& a : load.answers) {
    if (a.epoch > load.commits.size()) {
      report.check(false, "answer from epoch " + std::to_string(a.epoch) + " never committed");
      continue;
    }
    while (epoch < a.epoch) mirror.apply(plan[load.commits[epoch++].second].request.ops);
    if (!a.cc.empty()) {
      if (labels_epoch != epoch) {
        labels = mirror.components();
        labels_epoch = epoch;
      }
      report.check(same_partition(a.cc, labels),
                   "cc answer at epoch " + std::to_string(epoch) + " differs from the mirror");
      continue;
    }
    if (csr_epoch != epoch) {
      csr = mirror.csr();
      csr_epoch = epoch;
    }
    const auto root = plan[a.plan].request.roots.front();
    const auto expect = hpcg::algos::ref::bfs_levels(csr, root);
    bool ok = expect.size() == a.levels.size();
    for (std::size_t v = 0; ok && v < expect.size(); ++v) {
      ok = a.levels[v] == (expect[v] < 0 ? hs::Response::kUnvisited : expect[v]);
    }
    report.check(ok, "bfs answer from root " + std::to_string(root) + " at epoch " +
                         std::to_string(epoch) + " differs from the mirror");
  }
}

}  // namespace

Report run_serve(const Options& options) {
  Report report;
  const int scale = options.small ? 10 : 16;
  // About 80 requests per second of budget (the closed loop's pace on a
  // 4-core host), and at least 10 samples beyond each named percentile:
  // >= 1000 reads (p99) and >= 100 commits (p90). A fixed count rather than
  // a deadline keeps the commit sequence, and so stream.epochs, exact.
  const auto requests = options.small
                            ? std::size_t{300}
                            : static_cast<std::size_t>(std::max(1200.0, 80.0 * options.seconds));
  const hcore::Grid grid(2, 2);
  hs::SessionOptions session_options;
  session_options.kernel.threads = kThreadsPerRank;
  hs::ServiceOptions service_options;
  service_options.kernel.threads = kThreadsPerRank;

  std::vector<double> setup_s, generate_s, finish_s, session_s, ready_s;
  hg::EdgeList el;
  std::unique_ptr<hs::Session> session;
  std::unique_ptr<hs::Service> service;
  for (int s = 0; s < kSetups; ++s) {
    service.reset();
    session.reset();
    el = {};
    const double t0 = now_s();
    InputTimes input;
    el = make_input(scale, options.seed, &input);
    const double t1 = now_s();
    {
      Span span("serve", "Session");
      session = std::make_unique<hs::Session>(el, grid, session_options);
    }
    const double t2 = now_s();
    {
      // Returns once every rank has built its Dist2DGraph and run the job.
      Span span("serve", "Session::run");
      session->run([](hcore::Dist2DGraph&, hpcg::comm::Comm&) {});
    }
    const double t3 = now_s();
    {
      Span span("serve", "Service");
      service = std::make_unique<hs::Service>(*session, service_options);
    }
    setup_s.push_back(now_s() - t0);
    generate_s.push_back(input.generate_s);
    finish_s.push_back(input.finish_s);
    session_s.push_back(t2 - t1);
    ready_s.push_back(t3 - t2);
  }

  const auto plan = plan_requests(el, requests, options.seed);
  auto load = drive(*service, plan, options.trace, report);
  {
    Span span("serve", "Service::drain");
    service->drain();
  }
  const auto counters = service->metrics().snapshot().counters;
  const auto epochs = service->epoch();
  {
    Span span("serve", "Service::stop");
    service->stop();
  }
  {
    Span span("serve", "Session::close");
    session->close();
  }
  const double peak_mb = peak_rss_mb();

  const auto& parts = session->partition();
  const auto balance = hcore::partition_balance(parts);
  const auto roots = pick_roots(el, kBfsRoots, mix_seed(options.seed, 2));
  const auto replay = modeled_replay(parts, roots);
  check_answers(report, el, plan, load);
  if (!options.small) {
    report.check(load.read_ms.size() >= 1000 && load.commit_ms.size() >= 100,
                 "too few samples for read p99 / commit p90");
  }

  const auto counter = [&](const char* name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  std::vector<double> windows;
  for (std::size_t k = 0; (k + 1) * kWindow <= load.done_s.size(); ++k) {
    const double begin = k == 0 ? load.start_s : load.done_s[k * kWindow - 1];
    windows.push_back(load.done_s[(k + 1) * kWindow - 1] - begin);
  }
  const auto reads = static_cast<double>(load.read_ms.size());

  add_replay_guards(report, replay, el.m());
  report.guard("stream.epochs", std::to_string(epochs));
  report.guard("stream.edges.inserted", fmt(counter("stream.edges.inserted")));
  report.guard("stream.edges.deleted", fmt(counter("stream.edges.deleted")));
  report.notes.push_back("samples: setups=" + std::to_string(kSetups) +
                         " requests=" + std::to_string(plan.size()) +
                         " windows=" + std::to_string(windows.size()));
  report.notes.push_back("read_p50_ms=" + fmt(median(load.read_ms)) + " read_p99_ms=" +
                         fmt(percentile(load.read_ms, 0.99)) +
                         " (n=" + std::to_string(load.read_ms.size()) + ")");
  report.notes.push_back("commit_p50_ms=" + fmt(median(load.commit_ms)) + " commit_p90_ms=" +
                         fmt(percentile(load.commit_ms, 0.90)) +
                         " (n=" + std::to_string(load.commit_ms.size()) + ")");

  if (!options.trace) {
    report.e2e("setup_s", median(setup_s), "s");
    report.e2e("solve_s", median(windows), "s");
    report.e2e("modeled_s", replay.modeled_s, "s");
    report.e2e("read_p50_ms", median(load.read_ms), "ms");
    report.e2e("peak_rss_mb", peak_mb, "MB");
    return report;
  }

  std::vector<std::vector<QueryRecord>> replay_records;
  for (const auto& rec : replay.per_rank) replay_records.push_back({rec});
  const double incremental = counter("stream.cc.incremental") + counter("stream.bfs.repaired") +
                             counter("stream.pr.delta_seeded");
  const double stale = incremental + counter("stream.cc.fallback") +
                       counter("stream.bfs.fallback") + counter("stream.pr.delta_cold");
  const double batches = counter("serve.batches");
  init_layers(report);
  set_setup_layers(report, generate_s, finish_s, el.m(), session_s, ready_s,
                   balance.edge_imbalance());
  set_pass_layers(report, summarize(replay_records), replay);
  set_layer(report, "serve.queue_ms_p50", median(load.queue_ms));
  set_layer(report, "serve.exec_ms_p50.bfs", median(load.exec_ms[hs::Algo::kBfs]));
  set_layer(report, "serve.exec_ms_p50.msbfs", median(load.exec_ms[hs::Algo::kMsBfs]));
  set_layer(report, "serve.exec_ms_p50.pr", median(load.exec_ms[hs::Algo::kPageRank]));
  set_layer(report, "serve.exec_ms_p50.cc", median(load.exec_ms[hs::Algo::kCc]));
  set_layer(report, "serve.cache_hit_ratio", reads > 0 ? counter("serve.cache.hits") / reads : 0);
  set_layer(report, "serve.bfs_batch_mean",
            batches > 0 ? counter("serve.batched_requests") / batches : 0);
  set_layer(report, "serve.rejected", counter("serve.requests.rejected.queue_full") +
                                          counter("serve.requests.rejected.client_quota"));
  set_layer(report, "serve.read_p99_ms", percentile(load.read_ms, 0.99));
  set_layer(report, "serve.read_samples", reads);
  set_layer(report, "serve.commit_p50_ms", median(load.commit_ms));
  set_layer(report, "serve.commit_p90_ms", percentile(load.commit_ms, 0.90));
  set_layer(report, "serve.commit_samples", static_cast<double>(load.commit_ms.size()));
  set_layer(report, "serve.throughput_rps",
            static_cast<double>(load.completed) / (load.end_s - load.start_s));
  set_layer(report, "stream.commit_exec_ms_p50", median(load.exec_ms[hs::Algo::kMutate]));
  set_layer(report, "stream.incremental_ratio", stale > 0 ? incremental / stale : 0);
  set_layer(report, "stream.edges.inserted", counter("stream.edges.inserted"));
  set_layer(report, "stream.edges.deleted", counter("stream.edges.deleted"));
  set_layer(report, "stream.epochs", static_cast<double>(epochs));
  add_trace_layers(report, Tracer::spans(), windows);
  return report;
}

}  // namespace perfbench
