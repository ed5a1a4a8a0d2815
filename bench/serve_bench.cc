// Serving-layer benchmark: closed-loop multi-threaded query drivers over
// OracleServer (and the sharded ShardAggregator), one scenario per serving
// mechanism, all on the same shared driver.
//
// Every scenario issues a deterministic, seeded query stream through
// run_closed_loop (T worker threads, sources concentrated on a hot root set
// -- every consumer of a routing scheme asks about the same few sources),
// keeps every Nth (query, answer) pair, and checks those samples with
// verify() against from-scratch IsolationRpts rebuilds AFTER the clock
// stops. Each scenario emits JSON rows tagged bench=<scenario> for
// BENCH_SERVE.json (committed trajectory) and the CI bench-smoke artifact;
// bench/check_smoke.py holds the gates. Every row is gated on
// correct == checked; per scenario, the other gates are:
//   serve            cache on vs off: hit rate > 0.5, >= 2x qps, fewer bytes
//   serve_scan       fault-tree scan: segmented base hit rate >= flat LRU's
//   serve_churn      edge flaps: trees carried + invalidated, no phase flushed
//   serve_burst      k applies vs one batch: median batch apply_ms is lower
//   serve_churn_rcu  background mutator: updates land, <= 2 generations live
//   serve_eps        exact vs (1+eps): in bound, median approx qps >= exact
//   serve_sharded    shards {1, 2, 4}: identical answers, 2x fewer submits
//   serve_large      10^5-node compact trees: <= 0.6x fat bytes, more resident
//
// Scenario axes:
//   --threads 1,4     comma list of closed-loop worker counts
//   --queries N       queries per (family, threads, mode) measurement
//   --shards K        cache shards            (default 16)
//   --budget-mb M     cache byte budget       (default 256)
//   --hot H           size of the hot root set (default 8)
//   --flaps F         edge flaps in the churn scenario (default 12)
//   --epsilon E,..    comma list of stretch slacks for the approximate-tier
//                     scenario (default 0.25); each value adds exact-vs-
//                     approx serve_eps row pairs
//   --seed S          workload + flap seed, recorded in the JSON artifact
//                     (default 1): same seed, same queries, same flaps
//   --graph-file P    serve a real graph: .gr (DIMACS) / .txt|.snap (SNAP) /
//                     .rcsr (frozen CSR, mmap) / native edge list. Replaces
//                     the synthetic families in the serve scenario (when the
//                     file fits; n > 10^4 graphs go to serve_large only) and
//                     becomes the serve_large subject
//   --large-n N       serve_large generated-graph size when no --graph-file
//                     is given (default 100000; 0 skips the scenario)
//   --large-deg D     average degree of the generated large graph (def. 3)
//   --json PATH       emit one JSON row per measurement
//   --metrics-out P   dump every serving stack's MetricsRegistry snapshot
//                     (one JSON row per metric, tagged with bench / family /
//                     threads / mode) after its measurement window closes
//   --trace-out P     attach a sampled JSONL trace emitter (1 in 256
//                     queries) to every serving-mode server; spans decompose
//                     each sampled query into queue-wait / coalesce-wait /
//                     compute (docs/OBSERVABILITY.md has the span schema)
//   --small           reduced families + query count (CI bench-smoke job)
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/frozen_csr.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/oracle_server.h"
#include "serve/shard_aggregator.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/random.h"
#include "util/table.h"
#include "util/timing.h"

namespace restorable {
namespace {

struct Options {
  std::vector<int> threads{1};
  size_t queries = 20000;
  size_t shards = 16;
  size_t budget_mb = 256;
  size_t hot = 8;
  size_t flaps = 12;
  std::vector<double> epsilons{0.25};
  uint64_t seed = 1;
  std::string graph_file;
  size_t large_n = 100000;
  double large_deg = 3.0;
  std::string json_path;
  std::string metrics_path;
  std::string trace_path;
  bool small = false;
};

// Thread accounting for scenarios whose engine computes CONCURRENTLY with
// the drivers (serve_large, serve_sharded): --threads T is the TOTAL
// footprint, ceil(T/2) closed-loop drivers plus the rest as engine workers,
// with a floor of 1 + 1 (an engine needs a worker to flush). Their rows
// record driver_threads and engine_threads.
struct ThreadSplit {
  int drivers;
  int engine;
};
ThreadSplit split_threads(int total) {
  if (total <= 1) return {1, 1};
  const int drivers = (total + 1) / 2;
  return {drivers, total - drivers};
}

// Whether the wait-free instruments are live in this build; recorded on
// every row so BENCH_SERVE.json can carry both builds' points side by side
// (the metrics-overhead acceptance gate compares them).
const char* metrics_build() {
  return obs::kEnabled ? "on" : "compiled_out";
}

template <typename T, typename Parse>
std::vector<T> parse_list(const char* v, Parse parse) {
  std::vector<T> out;
  for (const char* p = v; *p;) {
    out.push_back(static_cast<T>(parse(p)));
    while (*p && *p != ',') ++p;
    if (*p == ',') ++p;
  }
  return out;
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* flag) {
      return flag_value(argc, argv, i, flag);
    };
    if (const char* v = value("--threads")) {
      opt.threads = parse_list<int>(v, std::atoi);
    } else if (const char* v = value("--queries")) {
      opt.queries = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--shards")) {
      opt.shards = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--budget-mb")) {
      opt.budget_mb = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--hot")) {
      opt.hot = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--flaps")) {
      opt.flaps = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--epsilon")) {
      opt.epsilons = parse_list<double>(v, std::atof);
    } else if (const char* v = value("--seed")) {
      opt.seed = static_cast<uint64_t>(std::atoll(v));
    } else if (const char* v = value("--graph-file")) {
      opt.graph_file = v;
    } else if (const char* v = value("--large-n")) {
      opt.large_n = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--large-deg")) {
      opt.large_deg = std::atof(v);
    } else if (const char* v = value("--json")) {
      opt.json_path = v;
    } else if (const char* v = value("--metrics-out")) {
      opt.metrics_path = v;
    } else if (const char* v = value("--trace-out")) {
      opt.trace_path = v;
    } else if (std::string(argv[i]) == "--small") {
      opt.small = true;
    } else {
      std::cerr << "unknown flag: " << argv[i] << "\n";
      std::exit(2);
    }
  }
  auto require = [](bool ok, const char* message) {
    if (ok) return;
    std::cerr << message << "\n";
    std::exit(2);
  };
  if (opt.threads.empty()) opt.threads.push_back(1);
  for (int t : opt.threads)
    require(t >= 1, "--threads values must be positive integers");
  if (opt.small) {
    opt.queries = std::min<size_t>(opt.queries, 4000);
    opt.flaps = std::min<size_t>(opt.flaps, 6);
  }
  require(opt.flaps > 0, "--flaps must be positive");
  for (double e : opt.epsilons)
    require(e > 0.0 && quantize_epsilon(e) > 0,
            "--epsilon values must quantize to a positive slack");
  return opt;
}

// ---------------------------------------------------------------------------
// The shared driver: every scenario measures through run_closed_loop,
// summarizes with percentile / rate, checks its samples with verify and
// opens its JSON rows with Report::row.

// One closed-loop run: wall time, every query's latency (ascending, us)
// and the sampled (query, answer) pairs in worker order.
template <typename Q, typename A>
struct LoopRun {
  double wall_ms = 0;
  std::vector<double> latencies;
  std::vector<double> head_latencies;  // each worker's first `head` queries
  std::vector<std::pair<Q, A>> samples;
};

// `threads` workers each issue `per_thread` queries; worker w's i-th query
// is make(seq) with seq = (phase * threads + w) * per_thread + i, so a
// scenario's phases never reuse a stream position. Only ask() is timed.
// Every `sample_every`-th answer of a worker (0 = none) is kept for
// verify(), which runs after the clock stops: a reference rebuild inside
// the window would bill its cost to the serving stack. The first `head`
// latencies of each worker land in head_latencies instead of latencies.
template <typename Make, typename Ask>
auto run_closed_loop(int threads, size_t per_thread, Make make, Ask ask,
                     size_t sample_every, uint64_t phase = 0,
                     size_t head = 0) {
  using Q = decltype(make(uint64_t{0}));
  using A = decltype(ask(std::declval<const Q&>()));
  std::vector<std::vector<double>> lat(threads);
  std::vector<std::vector<std::pair<Q, A>>> samples(threads);
  Stopwatch wall;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      lat[w].reserve(per_thread);
      for (size_t i = 0; i < per_thread; ++i) {
        const Q q = make((phase * threads + w) * per_thread + i);
        Stopwatch sw;
        const A got = ask(q);
        lat[w].push_back(sw.micros());
        if (sample_every && i % sample_every == 0)
          samples[w].emplace_back(q, got);
      }
    });
  }
  for (auto& t : workers) t.join();
  LoopRun<Q, A> run;
  run.wall_ms = wall.millis();
  for (int w = 0; w < threads; ++w) {
    const auto split = lat[w].begin() + std::min(head, lat[w].size());
    run.head_latencies.insert(run.head_latencies.end(), lat[w].begin(),
                              split);
    run.latencies.insert(run.latencies.end(), split, lat[w].end());
    run.samples.insert(run.samples.end(), samples[w].begin(),
                       samples[w].end());
  }
  std::sort(run.latencies.begin(), run.latencies.end());
  std::sort(run.head_latencies.begin(), run.head_latencies.end());
  return run;
}

// The pct-th percentile of ascending latencies (0 when there are none).
double percentile(const std::vector<double>& sorted, size_t pct) {
  if (sorted.empty()) return 0.0;
  return sorted[std::min(sorted.size() - 1, sorted.size() * pct / 100)];
}

// Queries per second of `queries` over `wall_ms`.
double rate(size_t queries, double wall_ms) {
  return static_cast<double>(queries) / (wall_ms / 1e3);
}

// a / (a + b), 0 when both are 0.
double share(uint64_t a, uint64_t b) {
  return a + b ? static_cast<double>(a) / static_cast<double>(a + b) : 0.0;
}

struct Measurement {
  double qps = 0, p50_us = 0, p99_us = 0;
};

template <typename Run>
Measurement measure(const Run& run) {
  return {rate(run.latencies.size(), run.wall_ms),
          percentile(run.latencies, 50), percentile(run.latencies, 99)};
}

// Sampled answers checked against a reference: `correct` counts the
// samples `ok(query, answer)` accepts.
struct Check {
  size_t checked = 0, correct = 0;
  Check& operator+=(const Check& o) {
    checked += o.checked;
    correct += o.correct;
    return *this;
  }
};

template <typename Sample, typename Ok>
Check verify(const std::vector<Sample>& samples, Ok ok) {
  Check c;
  for (const auto& [q, got] : samples) {
    ++c.checked;
    if (ok(q, got)) ++c.correct;
  }
  return c;
}

// Comma-joined values, for the rows' per-trial and per-phase fields.
std::string join(const std::vector<double>& values, const char* fmt) {
  std::string out;
  char buf[32];
  for (const double v : values) {
    if (!out.empty()) out += ',';
    std::snprintf(buf, sizeof buf, fmt, v);
    out += buf;
  }
  return out;
}

// Where every scenario reports: the JSON rows, plus the observability
// sinks -- the metrics rows get one registry snapshot per measured serving
// stack, the tracer (when --trace-out is given) is shared by every
// serving-mode server.
struct Report {
  const Options& opt;
  JsonRows& json;
  JsonRows* metrics = nullptr;
  obs::Tracer* tracer = nullptr;

  // Opens a scenario's JSON row with the fields every row shares: its
  // identity, the build's metrics mode, the host's hardware threads and the
  // sample check every row is gated on (correct == checked).
  JsonRows& row(const char* bench, const std::string& family, const Graph& g,
                int threads, const std::string& mode,
                const Check& check) const {
    return json.row()
        .field("bench", bench)
        .field("family", family)
        .field("n", static_cast<uint64_t>(g.num_vertices()))
        .field("m", static_cast<uint64_t>(g.num_edges()))
        .field("threads", threads)
        .field("mode", mode)
        .field("seed", opt.seed)
        .field("metrics", metrics_build())
        .field("hw_threads",
               static_cast<uint64_t>(std::thread::hardware_concurrency()))
        .field("checked", check.checked)
        .field("correct", check.correct);
  }

  // One registry snapshot -> metrics rows, tagged with the measurement
  // (bench, family, threads, mode) the flat per-metric rows belong to.
  void dump(obs::MetricsRegistry& registry, const char* bench,
            const std::string& family, int threads,
            const std::string& mode) const {
    if (!metrics) return;
    registry.snapshot().to_json(*metrics, [&](JsonRows& rows) {
      rows.field("bench", bench)
          .field("family", family)
          .field("threads", threads)
          .field("mode", mode);
    });
  }

  // The serving stack most scenarios measure: the --shards / --budget-mb
  // cache, the single-flight batcher, the scenario's engine and the shared
  // tracer.
  ServerConfig config(const BatchSsspEngine& engine) const {
    ServerConfig cfg;
    cfg.cache.shards = opt.shards;
    cfg.cache.byte_budget = opt.budget_mb << 20;
    cfg.engine = &engine;
    cfg.tracer = tracer;
    return cfg;
  }
};

// `hot` roots spread evenly over the vertex ids.
std::vector<Vertex> spread_roots(const Graph& g, size_t hot) {
  std::vector<Vertex> roots;
  for (size_t i = 0; i < hot; ++i)
    roots.push_back(static_cast<Vertex>(
        (static_cast<uint64_t>(i) * g.num_vertices()) / hot));
  return roots;
}

// A uniformly drawn parent edge of `tree`: a flap victim guaranteed to
// invalidate it. One draw from the tree's parented vertices, so it stays
// O(1) draws where a rejection loop would degenerate (most of the graph
// unreachable from the root).
EdgeId random_tree_edge(const Spt& tree, Rng& rng) {
  std::vector<Vertex> parented;
  for (Vertex v = 0; v < tree.num_vertices(); ++v)
    if (tree.parent(v) != kNoVertex) parented.push_back(v);
  return tree.parent_edge(parented[rng.next_below(parented.size())]);
}

// Trial count of the scenarios whose CI gate compares two timings
// (serve, serve_eps, serve_burst): the modes run interleaved this many times
// and the gate reads the medians.
constexpr size_t kTrials = 5;

// Index of the median of kTrials values.
size_t median_index(const std::vector<double>& v) {
  std::vector<size_t> idx(v.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(),
            [&](size_t a, size_t b) { return v[a] < v[b]; });
  return idx[idx.size() / 2];
}

// ---------------------------------------------------------------------------
// The (s, t, F) queries most scenarios ask.
struct Query {
  enum Kind { kDistance, kFaultDistance, kReplacement, kPath } kind;
  Vertex s, t;
  EdgeId e;
};

// The mixed stream most scenarios share, as a run_closed_loop make(): mostly
// distances with occasional fault, some replacement-path queries, a few
// path extractions, sources on the hot root set. It reads only g's vertex
// and edge-slot counts, which updates never change (tombstones keep both).
auto mixed_queries(const Graph& g, const std::vector<Vertex>& hot_roots,
                   uint64_t seed) {
  return [&g, &hot_roots, seed](uint64_t seq) {
    const uint64_t h = hash_combine(hash_combine(0x5e7e5e7e, seed), seq);
    Query q;
    q.s = hot_roots[h % hot_roots.size()];
    q.t = static_cast<Vertex>(hash_combine(h, 1) % g.num_vertices());
    q.e = static_cast<EdgeId>(hash_combine(h, 2) % g.num_edges());
    const uint64_t kind = hash_combine(h, 3) % 10;
    q.kind = kind < 6   ? Query::kDistance
             : kind < 7 ? Query::kFaultDistance
             : kind < 9 ? Query::kReplacement
                        : Query::kPath;
    return q;
  };
}

int32_t run_query(OracleServer& server, const Query& q) {
  switch (q.kind) {
    case Query::kDistance:
      return server.distance(q.s, q.t);
    case Query::kFaultDistance:
      return server.distance(q.s, q.t, FaultSet{q.e});
    case Query::kReplacement:
      return server.replacement_distance(q.s, q.t, q.e);
    case Query::kPath:
      return static_cast<int32_t>(server.path(q.s, q.t).length());
  }
  return kUnreachable;
}

int32_t reference_answer(const IRpts& pi, const Query& q) {
  switch (q.kind) {
    case Query::kDistance:
      return pi.distance(q.s, q.t);
    case Query::kFaultDistance:
    case Query::kReplacement:
      return pi.distance(q.s, q.t, FaultSet{q.e});
    case Query::kPath:
      return static_cast<int32_t>(pi.path(q.s, q.t).length());
  }
  return kUnreachable;
}

// The ask() of a Query stream against `server`.
auto asker(OracleServer& server) {
  return [&server](const Query& q) { return run_query(server, q); };
}

// The verify() predicate of exact answers: `ref` is a from-scratch scheme
// over the topology the samples were served on.
auto matches(const IRpts& ref) {
  return [&ref](const Query& q, int32_t got) {
    return got == reference_answer(ref, q);
  };
}

// ---------------------------------------------------------------------------
// serve: cache-off (every fetch computes a fresh tree on the engine, no
// coalescing -- what every query cost before src/serve/ existed) versus the
// serving stack (sharded cache + single-flight batcher), same stream. Both
// modes run kTrials times interleaved; qps is the median trial's, every
// other field but the checks (all trials) is that trial's too.

// The cache-off baseline as an ask(): each tree fetch is one spt_batch call
// on `engine`, with nothing cached or coalesced. It answers the four Query
// kinds exactly as OracleServer does -- replacement queries take the same
// stability fast path -- and counts the bytes of every tree it builds.
class Recompute {
 public:
  Recompute(const IRpts& pi, const BatchSsspEngine& engine)
      : pi_(pi), engine_(engine) {}

  int32_t operator()(const Query& q) {
    queries_.fetch_add(1, std::memory_order_relaxed);
    switch (q.kind) {
      case Query::kDistance:
        return fetch(q.s, {})->hops(q.t);
      case Query::kFaultDistance:
        return fetch(q.s, FaultSet{q.e})->hops(q.t);
      case Query::kReplacement: {
        const SptHandle base = fetch(q.s, {});
        if (!base->reachable(q.t)) return kUnreachable;
        if (!base->path_uses_edge(q.t, q.e)) return base->hops(q.t);
        return fetch(q.s, FaultSet{q.e})->hops(q.t);
      }
      case Query::kPath:
        return static_cast<int32_t>(fetch(q.s, {})->path_to(q.t).length());
    }
    return kUnreachable;
  }

  // Bytes of tree materialized per query answered.
  double bytes_per_query() const {
    return static_cast<double>(bytes_.load(std::memory_order_relaxed)) /
           static_cast<double>(
               std::max<uint64_t>(1, queries_.load(std::memory_order_relaxed)));
  }

 private:
  SptHandle fetch(Vertex root, FaultSet faults) {
    const SsspRequest req{root, std::move(faults), Direction::kOut};
    SptHandle tree =
        pi_.spt_batch(std::span<const SsspRequest>(&req, 1), &engine_)[0];
    bytes_.fetch_add(tree->memory_bytes(), std::memory_order_relaxed);
    return tree;
  }

  const IRpts& pi_;
  const BatchSsspEngine& engine_;
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> bytes_{0};
};

void bench_family(Table& table, const Options& opt, const Report& out,
                  const std::string& family, const Graph& g) {
  const IsolationRpts pi(g, IsolationAtw(7));
  const std::vector<Vertex> hot_roots = spread_roots(g, opt.hot);
  const auto make = mixed_queries(g, hot_roots, opt.seed);

  // One trial of one mode: the measurement, its sample check and, for
  // cache_on, the serving stack's counters read after the window closed.
  struct ServeRun {
    Measurement m;
    Check check;
    double bytes_per_query = 0;
    SptCache::Stats cache;
    CoalescingBatcher::Stats batch;
    ServerStats sstats;
    uint64_t stability_fast_paths = 0;
  };

  for (int threads : opt.threads) {
    const BatchSsspEngine engine(threads);
    const size_t per_thread = opt.queries / threads;
    auto run_off = [&] {
      Recompute off(pi, engine);
      const auto run = run_closed_loop(
          threads, per_thread, make,
          [&off](const Query& q) { return off(q); }, 64);
      ServeRun r;
      r.m = measure(run);
      r.check = verify(run.samples, matches(pi));
      r.bytes_per_query = off.bytes_per_query();
      return r;
    };
    auto run_on = [&](bool last_trial) {
      OracleServer on(pi, out.config(engine));
      const auto run =
          run_closed_loop(threads, per_thread, make, asker(on), 64);
      if (last_trial)
        out.dump(on.metrics(), "serve", family, threads, "cache_on");
      ServeRun r;
      r.m = measure(run);
      r.check = verify(run.samples, matches(pi));
      // Bytes of tree freshly materialized per query: it collapses on
      // repeated roots, where hits alias the resident tree zero-copy.
      r.bytes_per_query =
          static_cast<double>(on.bytes_materialized()) /
          static_cast<double>(std::max<uint64_t>(1, on.queries_served()));
      r.cache = on.cache()->stats();
      r.batch = on.batcher()->stats();
      // Outcome classes + latency decomposition from ONE registry snapshot;
      // per-class splits and histograms live in the --metrics-out document.
      r.sstats = on.stats();
      r.stability_fast_paths = on.stability_fast_paths();
      return r;
    };

    std::array<std::vector<ServeRun>, 2> trials;
    for (size_t t = 0; t < kTrials; ++t) {
      trials[0].push_back(run_off());
      trials[1].push_back(run_on(t + 1 == kTrials));
    }
    std::array<std::vector<double>, 2> qps;
    std::array<Check, 2> check;
    for (const bool on : {false, true})
      for (const ServeRun& r : trials[on]) {
        qps[on].push_back(r.m.qps);
        check[on] += r.check;
      }
    const ServeRun& off = trials[0][median_index(qps[0])];
    const ServeRun& on = trials[1][median_index(qps[1])];
    const double speedup = on.m.qps / off.m.qps;
    const std::vector<double> hist(
        on.batch.batch_hist,
        on.batch.batch_hist + CoalescingBatcher::kHistBuckets);

    table.add_row(family, g.num_vertices(), g.num_edges(), threads, "off",
                  off.m.qps, off.m.p50_us, off.m.p99_us, 0.0, 1.0);
    table.add_row(family, g.num_vertices(), g.num_edges(), threads, "on",
                  on.m.qps, on.m.p50_us, on.m.p99_us, on.cache.hit_rate(),
                  speedup);

    auto row = [&](const char* mode, bool is_on) -> JsonRows& {
      const ServeRun& r = is_on ? on : off;
      return out.row("serve", family, g, threads, mode, check[is_on])
          .field("shards", opt.shards)
          .field("budget_mb", opt.budget_mb)
          .field("hot_roots", hot_roots.size())
          .field("queries", opt.queries)
          .field("qps", r.m.qps)
          .field("qps_trials", join(qps[is_on], "%.1f"))
          .field("p50_us", r.m.p50_us)
          .field("p99_us", r.m.p99_us);
    };
    row("cache_off", false)
        .field("hit_rate", 0.0)
        .field("speedup_vs_off", 1.0)
        .field("bytes_per_query", off.bytes_per_query);
    row("cache_on", true)
        .field("hit_rate", on.cache.hit_rate())
        .field("base_hit_rate", on.cache.base_hit_rate())
        .field("speedup_vs_off", speedup)
        .field("bytes_per_query", on.bytes_per_query)
        .field("cache_hits", on.cache.hits)
        .field("cache_misses", on.cache.misses)
        .field("cache_entries", on.cache.entries)
        .field("cache_bytes", on.cache.bytes)
        .field("cache_sum_shard_peak_bytes", on.cache.sum_shard_peak_bytes)
        .field("protected_bytes", on.cache.protected_bytes)
        .field("protected_entries", on.cache.protected_entries)
        .field("evictions", on.cache.evictions)
        .field("coalesced", on.batch.coalesced)
        .field("computed", on.batch.computed)
        .field("computed_bytes", on.batch.computed_bytes)
        .field("flushes", on.batch.flushes)
        .field("max_batch", on.batch.max_batch)
        .field("max_queue_depth", on.batch.max_queue_depth)
        .field("batch_hist", join(hist, "%.0f"))
        .field("base_hit", on.sstats.base_hit)
        .field("fault_hit", on.sstats.fault_hit)
        .field("miss_coalesced", on.sstats.miss_coalesced)
        .field("miss_leader", on.sstats.miss_leader)
        .field("queue_wait_ms",
               static_cast<double>(on.sstats.queue_wait_ns) / 1e6)
        .field("coalesce_wait_ms",
               static_cast<double>(on.sstats.coalesce_wait_ns) / 1e6)
        .field("compute_ms", static_cast<double>(on.sstats.compute_ns) / 1e6)
        .field("repair_ms", static_cast<double>(on.sstats.repair_ns) / 1e6)
        .field("repaired", on.sstats.repaired)
        .field("recomputed", on.sstats.recomputed)
        .field("stability_fast_paths", on.stability_fast_paths);
  }
}

// serve_scan: a closed-loop mix of hot base-tree queries and a sweeping
// fault-tree scan (every fault key distinct, so each one computes and
// inserts a fresh fault tree) against a budget sized to hold the hot base
// trees plus only a handful of fault trees. Flat LRU lets the scan churn
// the base trees out; segmented admission confines the scan to the
// probationary segment. One row per (threads, admission) pair.
void bench_fault_scan(Table& table, const Options& opt, const Report& out,
                      const std::string& family, const Graph& g) {
  const IsolationRpts pi(g, IsolationAtw(7));
  const std::vector<Vertex> hot_roots = spread_roots(g, opt.hot);
  const size_t probe_bytes = pi.spt(hot_roots[0]).memory_bytes();
  // Hot base trees + ~8 fault trees of headroom, in one shard so the
  // eviction pressure is undiluted.
  const size_t budget = (opt.hot + 8) * (probe_bytes + 1024);
  auto make = [&](uint64_t seq) {
    const uint64_t h = hash_combine(hash_combine(0x5ca9, opt.seed), seq);
    Query q;
    q.s = hot_roots[h % hot_roots.size()];
    q.t = static_cast<Vertex>(hash_combine(h, 1) % g.num_vertices());
    // Every other query scans a fresh fault; the rest read the hot base
    // trees the policy is supposed to protect.
    if (seq % 2 == 0) {
      q.kind = Query::kDistance;
      q.e = 0;
    } else {
      q.kind = Query::kFaultDistance;
      q.e = static_cast<EdgeId>(seq / 2 % g.num_edges());
    }
    return q;
  };

  for (int threads : opt.threads) {
    const BatchSsspEngine engine(threads);
    for (const double fraction : {0.0, 0.5}) {
      ServerConfig cfg = out.config(engine);
      cfg.cache.shards = 1;
      cfg.cache.byte_budget = budget;
      cfg.cache.protected_fraction = fraction;
      OracleServer server(pi, cfg);
      const auto run = run_closed_loop(threads, opt.queries / threads, make,
                                       asker(server), 64);
      const Check check = verify(run.samples, matches(pi));

      const auto stats = server.cache()->stats();
      const double qps = rate(run.latencies.size(), run.wall_ms);
      const char* mode = fraction > 0 ? "scan_segmented" : "scan_flat";
      out.dump(server.metrics(), "serve_scan", family, threads, mode);
      table.add_row(family, threads, mode, qps, stats.hit_rate(),
                    stats.base_hit_rate(), stats.evictions);
      out.row("serve_scan", family, g, threads, mode, check)
          .field("protected_fraction", fraction)
          .field("budget_bytes", budget)
          .field("queries", run.latencies.size())
          .field("qps", qps)
          .field("hit_rate", stats.hit_rate())
          .field("base_hit_rate", stats.base_hit_rate())
          .field("base_hits", stats.base_hits)
          .field("base_misses", stats.base_misses)
          .field("evictions", stats.evictions)
          .field("cache_sum_shard_peak_bytes", stats.sum_shard_peak_bytes)
          .field("protected_bytes", stats.protected_bytes);
    }
  }
}

// serve_churn: phases of closed-loop queries interleaved with seeded edge
// flaps through OracleServer::apply_update. Every other flap removes an
// edge off a hot root's current tree (guaranteed to invalidate that root),
// the rest remove a uniformly random present edge; each removal is healed
// by re-inserting the same endpoints (tombstone resurrection, so labels --
// and therefore tiebreak weights -- are stable). Reported: carried vs
// invalidated tree counts, apply_update latency, recovery-vs-steady query
// latency, the per-phase hit-rate trajectory, and sampled answers verified
// against a from-scratch rebuild of each phase's exact topology.
void bench_churn(Table& table, const Options& opt, const Report& out,
                 const std::string& family, const Graph& g0) {
  for (int threads : opt.threads) {
    Graph g = g0;  // the mutable working copy this scheme serves
    const IsolationRpts pi(g, IsolationAtw(7));
    const BatchSsspEngine engine(threads);
    OracleServer server(pi, out.config(engine));
    const std::vector<Vertex> hot_roots = spread_roots(g, opt.hot);
    const auto make = mixed_queries(g, hot_roots, opt.seed);

    const size_t phases = opt.flaps + 1;
    const size_t per_thread = std::max<size_t>(
        1, opt.queries / phases / static_cast<size_t>(threads));
    Rng flap_rng(hash_combine(opt.seed, 0xf1a9));

    Check check;
    std::vector<double> recovery_lat, steady_lat;
    double query_wall_ms = 0, apply_ms = 0;
    size_t carried = 0, invalidated = 0, purged = 0, prewarmed = 0;
    std::vector<double> trajectory;
    uint64_t last_hits = 0, last_misses = 0;
    EdgeId flapped = kNoEdge;  // currently-removed edge awaiting re-insert
    Vertex fu = 0, fv = 0;
    size_t removals = 0;

    for (size_t phase = 0; phase < phases; ++phase) {
      // The first queries of a post-flap phase pay the recovery cost
      // (whatever pre-warming left cold); the rest are steady state.
      const auto run =
          run_closed_loop(threads, per_thread, make, asker(server), 32, phase,
                          phase > 0 ? 8 : 0);
      // Verified against a from-scratch rebuild of this phase's topology
      // (same policy seed => same scheme), outside the measurement window.
      check += verify(run.samples, matches(IsolationRpts(g, IsolationAtw(7))));
      query_wall_ms += run.wall_ms;
      recovery_lat.insert(recovery_lat.end(), run.head_latencies.begin(),
                          run.head_latencies.end());
      steady_lat.insert(steady_lat.end(), run.latencies.begin(),
                        run.latencies.end());
      const auto cs = server.cache()->stats();
      const uint64_t ph = cs.hits - last_hits, pm = cs.misses - last_misses;
      last_hits = cs.hits;
      last_misses = cs.misses;
      trajectory.push_back(share(ph, pm));

      if (phase + 1 == phases) break;
      // The flap. Removals alternate hot-tree edges (provably affecting the
      // hot root) with uniform present edges; each is healed next time.
      GraphDelta d;
      if (flapped != kNoEdge) {
        d = GraphDelta::insert(fu, fv);
      } else if (removals++ % 2 == 0) {
        const Vertex h = hot_roots[flap_rng.next_below(hot_roots.size())];
        d = GraphDelta::remove(
            random_tree_edge(*server.tree({h, {}, Direction::kOut}), flap_rng));
      } else {
        EdgeId e = static_cast<EdgeId>(flap_rng.next_below(g.num_edges()));
        while (!g.edge_present(e))
          e = static_cast<EdgeId>(flap_rng.next_below(g.num_edges()));
        d = GraphDelta::remove(e);
      }
      Stopwatch usw;
      const UpdateResult res = server.apply_update(g, d);
      apply_ms += usw.millis();
      carried += res.carried;
      invalidated += res.invalidated;
      purged += res.purged_stale;
      prewarmed += res.prewarmed;
      if (d.kind == GraphDelta::Kind::kRemove) {
        flapped = res.delta.edge;
        fu = res.delta.u;
        fv = res.delta.v;
      } else {
        flapped = kNoEdge;
      }
    }

    std::sort(recovery_lat.begin(), recovery_lat.end());
    std::sort(steady_lat.begin(), steady_lat.end());
    const size_t total_queries =
        per_thread * static_cast<size_t>(threads) * phases;
    const double qps = rate(total_queries, query_wall_ms);
    const double carried_fraction = share(carried, invalidated);
    const auto cache_stats = server.cache()->stats();
    const ServerStats sstats = server.stats();
    out.dump(server.metrics(), "serve_churn", family, threads, "churn");

    table.add_row(family, threads, qps, carried, invalidated, carried_fraction,
                  apply_ms / opt.flaps, cache_stats.hit_rate());
    out.row("serve_churn", family, g0, threads, "churn", check)
        .field("flaps", opt.flaps)
        .field("queries", total_queries)
        .field("qps", qps)
        .field("steady_p50_us", percentile(steady_lat, 50))
        .field("steady_p99_us", percentile(steady_lat, 99))
        .field("recovery_p50_us", percentile(recovery_lat, 50))
        .field("recovery_p99_us", percentile(recovery_lat, 99))
        .field("apply_ms_avg", apply_ms / opt.flaps)
        .field("repair_ms", static_cast<double>(sstats.repair_ns) / 1e6)
        .field("repaired", sstats.repaired)
        .field("recomputed", sstats.recomputed)
        .field("carried_total", carried)
        .field("invalidated_total", invalidated)
        .field("purged_stale_total", purged)
        .field("prewarmed_total", prewarmed)
        .field("carried_fraction", carried_fraction)
        .field("updates_applied", server.updates_applied())
        .field("hit_rate", cache_stats.hit_rate())
        .field("hit_rate_trajectory", join(trajectory, "%.4f"))
        .field("cache_entries", cache_stats.entries)
        .field("cache_carried_forward", cache_stats.carried_forward)
        .field("cache_invalidated", cache_stats.invalidated)
        .field("cache_sum_shard_peak_bytes", cache_stats.sum_shard_peak_bytes);
  }
}

// serve_burst: the SAME k edge removals applied as k single-delta
// apply_update calls versus ONE apply_updates batch, against identically
// warmed servers. The single path pays k cache walks, k epoch bumps (CSR
// rebuilds) and k repair batches where the burst pays one of each. Both
// modes run kTrials times interleaved; every field but the checks (all
// trials) is the median trial's by apply_ms.
void bench_burst(Table& table, const Options& opt, const Report& out,
                 const std::string& family, const Graph& g0) {
  const size_t k = opt.flaps;
  // Victim edges chosen once on the pristine topology so both modes apply
  // identical deltas: half edges of a hot root's tree (provably
  // invalidating), half uniform present edges, all distinct.
  std::vector<GraphDelta> removals, heals;
  {
    const IsolationRpts pick(g0, IsolationAtw(7));
    Rng rng(hash_combine(opt.seed, 0xb045));
    const Spt hot_tree = pick.spt(0);
    std::vector<char> taken(g0.num_edges(), 0);
    while (removals.size() < k) {
      const EdgeId e =
          removals.size() % 2 == 0
              ? random_tree_edge(hot_tree, rng)
              : static_cast<EdgeId>(rng.next_below(g0.num_edges()));
      if (taken[e] || !g0.edge_present(e)) continue;
      taken[e] = 1;
      removals.push_back(GraphDelta::remove(e));
      heals.push_back(GraphDelta::insert(g0.endpoints(e).u,
                                         g0.endpoints(e).v));
    }
  }
  Graph mutated = g0;
  for (GraphDelta d : removals) mutated.apply(d);
  const IsolationRpts post(mutated, IsolationAtw(7));

  struct BurstRun {
    double apply_ms = 0, heal_ms = 0;
    size_t carried = 0, invalidated = 0, prewarmed = 0, repaired = 0;
    std::vector<double> recovery;
    Check check;
  };

  for (int threads : opt.threads) {
    const BatchSsspEngine engine(threads);
    auto run_mode = [&](bool burst, bool last_trial) {
      BurstRun r;
      Graph g = g0;
      const IsolationRpts pi(g, IsolationAtw(7));
      OracleServer server(pi, out.config(engine));

      // Identical warm population for both modes: every base tree, plus a
      // spread of fault trees on the hot roots -- the resident set the
      // update walk has to adjudicate.
      for (Vertex root = 0; root < g.num_vertices(); ++root)
        server.tree({root, {}, Direction::kOut});
      const std::vector<Vertex> hot_roots = spread_roots(g, opt.hot);
      for (const Vertex h : hot_roots)
        for (EdgeId e = 0; e < g.num_edges(); e += g.num_edges() / 8 + 1)
          server.tree({h, FaultSet{e}, Direction::kOut});

      // Applies `deltas` in the mode under test; returns its wall time.
      auto account = [&](const UpdateResult& res) {
        r.carried += res.carried;
        r.invalidated += res.invalidated;
        r.prewarmed += res.prewarmed;
        r.repaired += res.repaired;
      };
      auto apply = [&](const std::vector<GraphDelta>& deltas) {
        Stopwatch sw;
        if (burst) {
          account(server.apply_updates(g, deltas));
        } else {
          for (const GraphDelta& d : deltas)
            account(server.apply_update(g, d));
        }
        return sw.millis();
      };
      const auto make = mixed_queries(g, hot_roots, opt.seed);

      // The measured removal burst, then the first post-update queries
      // (seq 0..255, every 8th sampled against a rebuild of the mutated
      // topology). The inverse burst (tombstone resurrection) exercises
      // the insert-repair path; its samples (seq 256..383) are checked
      // against a rebuild of the healed topology.
      r.apply_ms = apply(removals);
      const auto rec = run_closed_loop(1, 256, make, asker(server), 8);
      r.recovery = rec.latencies;
      r.heal_ms = apply(heals);
      const auto healed =
          run_closed_loop(1, 128, make, asker(server), 1, /*phase=*/2);
      r.check = verify(rec.samples, matches(post));
      r.check += verify(healed.samples,
                        matches(IsolationRpts(g, IsolationAtw(7))));
      if (last_trial)
        out.dump(server.metrics(), "serve_burst", family, threads,
                 burst ? "burst" : "single");
      return r;
    };

    std::array<std::vector<BurstRun>, 2> trials;
    for (size_t t = 0; t < kTrials; ++t)
      for (const bool burst : {false, true})
        trials[burst].push_back(run_mode(burst, t + 1 == kTrials));

    for (const bool burst : {false, true}) {
      std::vector<double> apply_ms;
      Check check;
      for (const BurstRun& r : trials[burst]) {
        apply_ms.push_back(r.apply_ms);
        check += r.check;
      }
      const BurstRun& r = trials[burst][median_index(apply_ms)];
      const char* mode = burst ? "burst" : "single";
      table.add_row(family, threads, mode, static_cast<uint64_t>(k), r.apply_ms,
                    r.heal_ms, r.carried, r.invalidated, r.repaired,
                    r.prewarmed - r.repaired);
      out.row("serve_burst", family, g0, threads, mode, check)
          .field("flaps", k)
          .field("apply_ms", r.apply_ms)
          .field("apply_ms_trials", join(apply_ms, "%.4f"))
          .field("apply_ms_per_flap", r.apply_ms / static_cast<double>(k))
          .field("heal_ms", r.heal_ms)
          .field("carried_total", r.carried)
          .field("invalidated_total", r.invalidated)
          .field("prewarmed_total", r.prewarmed)
          .field("repaired_total", r.repaired)
          .field("recomputed_total", r.prewarmed - r.repaired)
          .field("recovery_p50_us", percentile(r.recovery, 50))
          .field("recovery_p99_us", percentile(r.recovery, 99));
    }
  }
}

// serve_churn_rcu: steady-state query latency of the epoch-pinned
// lock-free reads under CONTINUOUS background churn: the same workload
// quiet, then while a background mutator thread duty-cycles one hot-tree
// edge through apply_update (remove, pause, heal, pause). Every sampled
// churn answer must match a rebuild of one of the two topologies: matching
// neither would mean a torn read across an epoch swap. Epoch-pinned queries
// never block on the mutator, so p99_churn / p99_nochurn should stay near
// 1; shared 1-core runners make that ratio too noisy to gate.
void bench_churn_rcu(Table& table, const Options& opt, const Report& out,
                     const std::string& family, const Graph& g0) {
  for (int threads : opt.threads) {
    const BatchSsspEngine engine(threads);
    Graph g = g0;  // the mutable working copy this scheme serves
    const IsolationRpts pi(g, IsolationAtw(7));
    OracleServer server(pi, out.config(engine));
    const std::vector<Vertex> hot_roots = spread_roots(g, opt.hot);

    // Victim: a parent edge of hot root 0's current tree -- present on
    // the pristine topology and guaranteed to invalidate hot trees, so
    // every flap exercises the full publish + prewarm path, not a
    // carried-forward no-op.
    Rng rng(hash_combine(opt.seed, 0x4cb7));
    const EdgeId victim = random_tree_edge(
        *server.tree({hot_roots[0], {}, Direction::kOut}), rng);
    const Edge ends = g.endpoints(victim);

    // Queries are generated off the pristine graph: the live one mutates
    // under the mutator thread.
    const auto make = mixed_queries(g0, hot_roots, opt.seed);
    const size_t per_thread =
        std::max<size_t>(1, opt.queries / static_cast<size_t>(threads));

    // Phase 0: the quiet baseline (warms the hot trees as a side effect).
    const auto still =
        run_closed_loop(threads, per_thread, make, asker(server), 0, 0);

    // Phase 1: identical workload under continuous churn. Each mutator
    // iteration ends healed, so the final topology equals the pristine
    // one; the short pauses are the duty cycle a real control plane
    // would have between delta batches.
    std::atomic<bool> stop{false};
    const uint64_t updates_before = server.updates_applied();
    std::thread mutator([&] {
      size_t pairs = 0;
      // Floor of 4 flap pairs so tiny --small runs still measure churn.
      while (!stop.load(std::memory_order_relaxed) || pairs < 4) {
        server.apply_update(g, GraphDelta::remove(victim));
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        server.apply_update(g, GraphDelta::insert(ends.u, ends.v));
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        ++pairs;
      }
    });
    const auto churn =
        run_closed_loop(threads, per_thread, make, asker(server), 64, 1);
    stop.store(true, std::memory_order_relaxed);
    mutator.join();
    const uint64_t updates = server.updates_applied() - updates_before;

    // Every sampled churn answer must match a rebuild of one of the two
    // topologies the flap alternates between (same policy seed as the
    // served scheme, so tiebreaking is bit-identical). A sample matching
    // neither means a query mixed epochs.
    const IsolationRpts full_ref(g0, IsolationAtw(7));
    Graph removed = g0;
    GraphDelta rm = GraphDelta::remove(victim);
    removed.apply(rm);
    const IsolationRpts removed_ref(removed, IsolationAtw(7));
    const Check check =
        verify(churn.samples, [&](const Query& q, int32_t got) {
          return got == reference_answer(full_ref, q) ||
                 got == reference_answer(removed_ref, q);
        });

    const Measurement ms = measure(still), mc = measure(churn);
    const GenerationManager::Stats gs = server.generations()->stats();
    const double ratio = ms.p99_us > 0 ? mc.p99_us / ms.p99_us : 0;
    const char* mode = "rcu";
    out.dump(server.metrics(), "serve_churn_rcu", family, threads, mode);
    table.add_row(family, threads, mode, mc.qps, ms.p99_us, mc.p99_us, ratio,
                  updates, check.correct == check.checked ? "yes" : "NO");
    out.row("serve_churn_rcu", family, g0, threads, mode, check)
        .field("queries", per_thread * static_cast<size_t>(threads))
        .field("updates", updates)
        .field("qps_nochurn", ms.qps)
        .field("qps_churn", mc.qps)
        .field("p50_nochurn_us", ms.p50_us)
        .field("p99_nochurn_us", ms.p99_us)
        .field("p50_churn_us", mc.p50_us)
        .field("p99_churn_us", mc.p99_us)
        .field("p99_ratio", ratio)
        .field("gen_published", gs.published)
        .field("gen_retired", gs.retired)
        .field("gen_publish_waits", gs.publish_waits)
        .field("gen_live", gs.live);
  }
}

// serve_eps: the SAME churn-heavy workload -- distance-dominated query
// phases interleaved with a precomputed shortcut insert/remove flap
// schedule -- served by an exact-tier server (default_epsilon = 0) and an
// approximate-tier one (default_epsilon = eps), per --epsilon value, both
// kTrials times interleaved. Every base tree is warmed up front, so each
// flap makes the update walk adjudicate the full resident set: the exact
// tier recomputes where the (1+eps)-slack survival test carries trees
// forward. qps is sustained (query + apply wall) and the median trial's;
// every other field but the checks (all trials) is that trial's too. An
// answer is correct iff it lies in [d_exact, (1+eps_eff)^d_exact * d_exact]
// with matching reachability (eps_eff = the quantized slack served).
void bench_epsilon(Table& table, const Options& opt, const Report& out,
                   const std::string& family, const Graph& g0) {
  const std::vector<Vertex> hot_roots = spread_roots(g0, opt.hot);
  // Reused fault keys (cacheable, unlike the scan scenario's sweep).
  EdgeId fault_pool[4];
  for (size_t i = 0; i < 4; ++i)
    fault_pool[i] = static_cast<EdgeId>((i + 1) * g0.num_edges() / 5);

  // Flap schedule picked ONCE on the pristine topology so every tier applies
  // identical deltas: shortcut churn. Each pair (u, v) -- u a hot root, v at
  // hop distance 3-4 -- is inserted on one flap and removed again on the
  // next. This is the shape where the slack survival test structurally
  // separates the tiers: the insert kills every EXACT tree whose label gap
  // across (u, v) exceeds 1 (the edge creates a shorter path) while the
  // (1+eps) test tolerates gaps up to the slack, and the remove then kills
  // the exact tier's freshly recomputed trees AGAIN (they adopted the
  // shortcut; carried approximate trees never did).
  std::vector<std::pair<Vertex, Vertex>> shortcuts;
  Stopwatch gen_sw;
  {
    // Hop-band index: ONE tree per hot root, vertices bucketed by their hop
    // distance, then O(1) draws from the 3-4 band (widened to 2-4 when the
    // band is thin), so the driver never probes an SSSP per rejected try.
    const IsolationRpts pick(g0, IsolationAtw(7));
    Rng rng(hash_combine(opt.seed, 0xe95));
    std::vector<std::vector<Vertex>> band(hot_roots.size());
    std::vector<std::vector<Vertex>> band_wide(hot_roots.size());
    for (size_t i = 0; i < hot_roots.size(); ++i) {
      const Spt t = pick.spt(hot_roots[i]);
      for (Vertex v = 0; v < g0.num_vertices(); ++v) {
        const int32_t h = t.hops(v);
        if (h < 2 || h > 4) continue;
        band_wide[i].push_back(v);
        if (h >= 3) band[i].push_back(v);
      }
    }
    const size_t need = (opt.flaps + 1) / 2;
    size_t tries = 0;
    while (shortcuts.size() < need && tries < 100000) {
      const size_t i = rng.next_below(hot_roots.size());
      ++tries;
      const auto& pool = tries > 5000 ? band_wide[i] : band[i];
      if (pool.empty()) continue;
      const Vertex u = hot_roots[i];
      const Vertex v = pool[rng.next_below(pool.size())];
      if (g0.find_edge(u, v) != kNoEdge) continue;
      shortcuts.emplace_back(u, v);
    }
    if (shortcuts.size() < need) {
      std::cerr << "serve_eps: no shortcut candidates in the 2-4 hop band\n";
      return;
    }
  }
  const double gen_ms = gen_sw.millis();

  // Distance queries only: one in five under a reused fault key.
  auto make = [&](uint64_t seq) {
    const uint64_t h = hash_combine(hash_combine(0xe950, opt.seed), seq);
    Query q;
    q.s = hot_roots[h % hot_roots.size()];
    q.t = static_cast<Vertex>(hash_combine(h, 1) % g0.num_vertices());
    const bool faulted = hash_combine(h, 2) % 5 == 0;
    q.kind = faulted ? Query::kFaultDistance : Query::kDistance;
    q.e = faulted ? fault_pool[hash_combine(h, 3) % 4] : kNoEdge;
    return q;
  };

  struct TierResult {
    double qps = 0;     // sustained: queries / (query wall + apply wall)
    Measurement query;  // the query windows alone
    double apply_ms = 0;
    double bytes_per_query = 0;
    double hit_rate = 0;
    uint64_t carried = 0, invalidated = 0;
    Check check;  // correct = within the tier's contract
    uint64_t max_excess_ppm = 0;
    ServerStats sstats;
  };

  for (int threads : opt.threads) {
    const BatchSsspEngine engine(threads);
    for (double eps : opt.epsilons) {
      const uint32_t eps_q = quantize_epsilon(eps);
      const double eps_eff = dequantize_epsilon(eps_q);

      auto run_tier = [&](double tier_eps, bool last_trial) {
        TierResult r;
        Graph g = g0;
        const IsolationRpts pi(g, IsolationAtw(7));
        ServerConfig cfg = out.config(engine);
        cfg.default_epsilon = tier_eps;
        OracleServer server(pi, cfg);

        // Warm the full resident set (every base tree + the reused fault
        // keys on the hot roots) before the clock starts: each flap then
        // pays the honest adjudication cost over all of it.
        for (Vertex root = 0; root < g.num_vertices(); ++root)
          server.distance(root, root == 0 ? 1u : 0u);
        for (Vertex h : hot_roots)
          for (EdgeId e : fault_pool) server.distance(h, 0, FaultSet{e});
        const uint64_t warm_queries = server.queries_served();
        const uint64_t warm_bytes = server.bytes_materialized();

        // Within the tier's contract: exact rows must match the rebuild
        // bit-for-bit, approx rows must land in
        // [d_exact, (1+eps_eff)^d_exact * d_exact].
        auto within_bound = [&](const IRpts& ref) {
          return [&r, &ref, eps_eff](const Query& q, int32_t got) {
            const int32_t exact = reference_answer(ref, q);
            if (got == exact) return true;
            if (exact == kUnreachable || got == kUnreachable || got < exact)
              return false;
            const double d = static_cast<double>(exact);
            if (got > std::pow(1.0 + eps_eff, exact) * d + 1e-9) return false;
            const auto ppm = static_cast<uint64_t>((got - exact) * 1e6 / d);
            r.max_excess_ppm = std::max(r.max_excess_ppm, ppm);
            return true;
          };
        };

        const size_t phases = opt.flaps + 1;
        const size_t per_thread = std::max<size_t>(
            8, opt.queries / phases / static_cast<size_t>(threads));
        std::vector<double> latencies;
        double query_wall_ms = 0;
        EdgeId pending_shortcut = kNoEdge;  // live shortcut awaiting removal

        for (size_t phase = 0; phase < phases; ++phase) {
          const auto run =
              run_closed_loop(threads, per_thread, make, asker(server), 32,
                              phase);
          r.check += verify(run.samples,
                            within_bound(IsolationRpts(g, IsolationAtw(7))));
          query_wall_ms += run.wall_ms;
          latencies.insert(latencies.end(), run.latencies.begin(),
                           run.latencies.end());

          if (phase + 1 == phases) break;
          // Flap: even flaps insert the next shortcut, odd flaps remove it.
          GraphDelta d;
          if (phase % 2 == 0) {
            const auto& [u, v] = shortcuts[phase / 2];
            d = GraphDelta::insert(u, v);
          } else {
            d = GraphDelta::remove(pending_shortcut);
          }
          Stopwatch usw;
          const UpdateResult res = server.apply_update(g, d);
          r.apply_ms += usw.millis();
          r.carried += res.carried;
          r.invalidated += res.invalidated;
          if (phase % 2 == 0) pending_shortcut = res.delta.edge;
        }

        std::sort(latencies.begin(), latencies.end());
        r.query = {rate(latencies.size(), query_wall_ms),
                   percentile(latencies, 50), percentile(latencies, 99)};
        r.qps = rate(latencies.size(), query_wall_ms + r.apply_ms);
        r.bytes_per_query =
            static_cast<double>(server.bytes_materialized() - warm_bytes) /
            std::max(1.0, static_cast<double>(server.queries_served() -
                                              warm_queries));
        r.hit_rate = server.cache()->stats().hit_rate();
        r.sstats = server.stats();
        if (last_trial)
          out.dump(server.metrics(), "serve_eps", family, threads,
                   tier_eps > 0 ? "approx" : "exact");
        return r;
      };

      std::array<std::vector<TierResult>, 2> trials;
      for (size_t t = 0; t < kTrials; ++t) {
        trials[0].push_back(run_tier(0.0, t + 1 == kTrials));
        trials[1].push_back(run_tier(eps, t + 1 == kTrials));
      }

      for (const bool is_approx : {false, true}) {
        std::vector<double> qps;
        Check check;
        uint64_t max_excess_ppm = 0;
        for (const TierResult& t : trials[is_approx]) {
          qps.push_back(t.qps);
          check += t.check;
          max_excess_ppm = std::max(max_excess_ppm, t.max_excess_ppm);
        }
        const TierResult& r = trials[is_approx][median_index(qps)];
        const char* mode = is_approx ? "approx" : "exact";
        const double carried_fraction = share(r.carried, r.invalidated);
        table.add_row(family, threads, eps, mode, r.qps, carried_fraction,
                      r.hit_rate, static_cast<double>(max_excess_ppm) / 1e6,
                      check.correct == check.checked ? "yes" : "NO");
        out.row("serve_eps", family, g0, threads, mode, check)
            .field("flaps", opt.flaps)
            .field("epsilon", eps)
            .field("eps_q", static_cast<uint64_t>(is_approx ? eps_q : 0))
            .field("eps_effective", is_approx ? eps_eff : 0.0)
            .field("qps", r.qps)
            .field("qps_trials", join(qps, "%.1f"))
            .field("qps_query", r.query.qps)
            .field("p50_us", r.query.p50_us)
            .field("p99_us", r.query.p99_us)
            .field("gen_ms", gen_ms)
            .field("apply_ms", r.apply_ms)
            .field("hit_rate", r.hit_rate)
            .field("bytes_per_query", r.bytes_per_query)
            .field("carried_total", r.carried)
            .field("invalidated_total", r.invalidated)
            .field("carried_fraction", carried_fraction)
            .field("approx_hit", r.sstats.approx_hit)
            .field("escalated", r.sstats.escalated)
            .field("escalations_total", r.sstats.escalations_total)
            .field("escalations_path", r.sstats.escalations_path)
            .field("escalations_explicit", r.sstats.escalations_explicit)
            .field("escalations_stretch_recheck",
                   r.sstats.escalations_stretch_recheck)
            .field("stretch_samples", r.sstats.stretch_samples)
            .field("server_max_stretch_excess_ppm",
                   r.sstats.max_stretch_excess_ppm)
            .field("within_bound", check.correct)
            .field("observed_max_excess_ppm", max_excess_ppm);
      }
    }
  }
}

// serve_large: the memory-capacity economics of production-scale graphs.
// The subject is either --graph-file or a generated sparse_connected(large_n)
// road-like graph, taken through the full restart path -- freeze -> write ->
// mmap-load -> thaw -- so every run reports what a cold start actually
// costs (gen_ms for the driver's own graph acquisition, pack_ms to freeze,
// load_ms to map; mmap records whether the zero-parse path was live).
// Queries draw hot roots from a skewed (min-of-four uniforms) distribution
// over a root set sized ~2x what the budget would hold in fat form, so the
// cache budget -- not compute -- is the binding constraint, exactly the
// regime compact trees exist for. Two modes per thread count, both serving
// the published (compact) form: `compact` on the in-memory graph,
// `compact_mmap` on the mmap-thawed graph. Every sampled answer is checked
// against one from-scratch reference tree per hot root; after the query
// window a short flap phase (remove a hot parent edge, heal it) exercises
// repair-vs-recompute at scale. Thread accounting as in serve_sharded.
void bench_large(Table& table, const Options& opt, const Report& out) {
  // --- Acquire the subject graph (gen_ms = driver-side acquisition cost).
  Stopwatch gen_sw;
  Graph mem;
  std::string family;
  if (!opt.graph_file.empty()) {
    mem = load_graph_auto(opt.graph_file);
    const auto slash = opt.graph_file.find_last_of('/');
    family = slash == std::string::npos ? opt.graph_file
                                        : opt.graph_file.substr(slash + 1);
  } else {
    if (opt.large_n < 2) return;
    mem = sparse_connected(static_cast<Vertex>(opt.large_n), opt.large_deg,
                           opt.seed);
    family = "sparse(" + std::to_string(opt.large_n) + ")";
  }
  const double gen_ms = gen_sw.millis();

  // --- Restart path: freeze -> write -> mmap-load -> thaw. A .rcsr input is
  // mapped directly; everything else round-trips through a scratch file.
  const bool input_frozen =
      opt.graph_file.size() > 5 &&
      opt.graph_file.substr(opt.graph_file.size() - 5) == ".rcsr";
  const std::string frozen_path =
      input_frozen ? opt.graph_file
                   : "/tmp/serve_large_" + std::to_string(opt.seed) + "_" +
                         std::to_string(mem.num_vertices()) + ".rcsr";
  double pack_ms = 0, load_ms = 0;
  bool mmapped = false;
  uint64_t file_bytes = 0;
  std::optional<Graph> mapped;
  if (!input_frozen) {
    Stopwatch sw;
    if (FrozenCsr::freeze(mem).write(frozen_path)) pack_ms = sw.millis();
  }
  {
    Stopwatch sw;
    auto frozen = FrozenCsr::load(frozen_path);
    load_ms = sw.millis();
    if (frozen) {
      mmapped = frozen->mapped();
      file_bytes = frozen->file_bytes();
      mapped = frozen->thaw();
    }
  }
  if (!input_frozen) std::remove(frozen_path.c_str());

  const IsolationRpts ref(mem, IsolationAtw(7));
  const size_t hot = 32;
  const std::vector<Vertex> hot_roots = spread_roots(mem, hot);
  // Budget: half the hot set's FAT trees, so the published compact form
  // (~6 vs 12 bytes/vertex) holds roughly the whole set where fat trees
  // would thrash. probe_bytes is also every row's fat_bytes_per_tree.
  const size_t probe_bytes = ref.spt(hot_roots[0]).memory_bytes();
  const size_t budget = (hot / 2) * (probe_bytes + 256);
  // Query volume scaled so miss-driven recomputes stay bounded as n grows
  // (each miss is a full SSSP); the row records the actual count.
  const size_t lq = std::max<size_t>(
      240, std::min(opt.queries, size_t{200000000} /
                                     std::max<size_t>(1, mem.num_vertices())));
  const size_t large_flaps = 2;
  auto make = [&](uint64_t seq) {
    const uint64_t h = hash_combine(hash_combine(0x1a49e, opt.seed), seq);
    Query q;
    // Skewed root draw: min of four uniforms keeps the head of the hot set
    // resident under LRU while the tail still gets touched.
    uint64_t idx = h % hot;
    idx = std::min(idx, hash_combine(h, 4) % hot);
    idx = std::min(idx, hash_combine(h, 5) % hot);
    idx = std::min(idx, hash_combine(h, 6) % hot);
    q.s = hot_roots[idx];
    q.t = static_cast<Vertex>(hash_combine(h, 1) % mem.num_vertices());
    q.e = 0;
    q.kind = hash_combine(h, 3) % 10 < 8 ? Query::kDistance : Query::kPath;
    return q;
  };

  struct LargeRun {
    int threads = 0;
    const char* mode = "";
    Measurement m;
    std::vector<std::pair<Query, int32_t>> samples;  // deterministic order
    uint64_t samples_match = 0;  // filled by the audit below
    SptCache::Stats cstats;
    ServerStats sstats;
    double apply_ms = 0;
  };
  std::vector<LargeRun> runs;

  for (int threads : {1, 2, 8}) {
    const ThreadSplit ts = split_threads(threads);
    const BatchSsspEngine engine(ts.engine);
    auto run_mode = [&](const Graph& base, const char* mode) {
      LargeRun r;
      r.threads = threads;
      r.mode = mode;
      Graph g = base;  // private copy: the flap phase mutates it
      const IsolationRpts pi(g, IsolationAtw(7));
      ServerConfig cfg = out.config(engine);
      cfg.cache.shards = 1;  // exact LRU counts: entries compare across modes
      cfg.cache.byte_budget = budget;
      OracleServer server(pi, cfg);
      const size_t per_thread =
          std::max<size_t>(1, lq / static_cast<size_t>(ts.drivers));
      auto run =
          run_closed_loop(ts.drivers, per_thread, make, asker(server), 16);
      r.m = measure(run);
      r.samples = std::move(run.samples);

      // Repair-vs-recompute at scale: flap a hot parent edge and heal it,
      // letting the update walk adjudicate the full resident set.
      const auto tree = server.tree({hot_roots[0], {}, Direction::kOut});
      Rng rng(hash_combine(opt.seed, 0x1a46e));
      std::vector<EdgeId> victims;
      for (size_t f = 0; f < large_flaps; ++f)
        victims.push_back(random_tree_edge(*tree, rng));
      Stopwatch sw;
      for (const EdgeId e : victims) {
        const Edge ends = g.endpoints(e);
        server.apply_update(g, GraphDelta::remove(e));
        server.apply_update(g, GraphDelta::insert(ends.u, ends.v));
      }
      r.apply_ms = sw.millis();
      r.cstats = server.cache()->stats();
      r.sstats = server.stats();
      out.dump(server.metrics(), "serve_large", family, threads, mode);
      return r;
    };

    runs.push_back(run_mode(mem, "compact"));
    // Without a loaded file the mode degrades to the in-memory graph
    // (mmap=0 in the row) but still measures.
    runs.push_back(run_mode(mapped ? *mapped : mem, "compact_mmap"));
  }

  // Answer audit, outside every timing window: every sampled answer of
  // every run is compared against one from-scratch reference tree per hot
  // root (built once, dropped before the next, so the audit holds a single
  // tree even at n = 10^6) -- compaction and the mmap round-trip change
  // bytes, never answers.
  for (Vertex root : hot_roots) {
    const Spt want = ref.spt(root);
    for (LargeRun& r : runs)
      for (const auto& [q, got] : r.samples) {
        if (q.s != root) continue;
        const int32_t expect =
            q.kind == Query::kPath
                ? static_cast<int32_t>(want.path_to(q.t).length())
                : want.hops(q.t);
        if (got == expect) ++r.samples_match;
      }
  }

  for (const LargeRun& r : runs) {
    // Independent spot check of every 8th sample through the scheme's own
    // query API.
    std::vector<std::pair<Query, int32_t>> spot;
    for (size_t i = 0; i < r.samples.size(); i += 8)
      spot.push_back(r.samples[i]);
    const Check check = verify(spot, matches(ref));
    const double bytes_per_tree =
        static_cast<double>(r.cstats.bytes) /
        static_cast<double>(std::max<size_t>(1, r.cstats.entries));
    table.add_row(family, mem.num_vertices(), r.threads, r.mode, r.m.qps,
                  r.cstats.hit_rate(), static_cast<uint64_t>(r.cstats.entries),
                  bytes_per_tree, load_ms, mmapped ? "yes" : "no");
    out.row("serve_large", family, mem, r.threads, r.mode, check)
        .field("driver_threads", split_threads(r.threads).drivers)
        .field("engine_threads", split_threads(r.threads).engine)
        .field("queries", lq)
        .field("hot_roots", hot)
        .field("budget_bytes", budget)
        .field("gen_ms", gen_ms)
        .field("pack_ms", pack_ms)
        .field("load_ms", load_ms)
        .field("file_bytes", file_bytes)
        .field("mmap", static_cast<uint64_t>(mmapped ? 1 : 0))
        .field("qps", r.m.qps)
        .field("p50_us", r.m.p50_us)
        .field("p99_us", r.m.p99_us)
        .field("hit_rate", r.cstats.hit_rate())
        .field("trees_resident", r.cstats.entries)
        .field("cache_bytes", r.cstats.bytes)
        .field("bytes_per_tree", bytes_per_tree)
        .field("fat_bytes_per_tree", probe_bytes)
        .field("evictions", r.cstats.evictions)
        .field("flaps", large_flaps)
        .field("apply_ms", r.apply_ms)
        .field("repair_ms", static_cast<double>(r.sstats.repair_ns) / 1e6)
        .field("repaired", r.sstats.repaired)
        .field("recomputed", r.sstats.recomputed)
        .field("samples", r.samples.size())
        .field("samples_match", r.samples_match);
  }
}

// serve_sharded: the three-layer stack -- ShardRouter (consistent hashing
// on (scheme_id, root)), the group-by-shard front-end (one serve_batch per
// touched shard), and the OracleShard fleet -- swept over shards {1, 2, 4}
// with the global cache budget split evenly across shards. The workload is
// cross-shard-heavy by construction: 6/8 of queries are tree_batch
// fan-outs over kShardFanout roots drawn uniformly from the whole vertex
// set (at 4 shards nearly every query touches every shard), 1/8 point
// distances and 1/8 replacement distances off the hot set. A naive
// front-end would issue one submission per routed sub-query; the rows
// record how far below that the group-by-shard rule runs. Sharding
// repartitions work, never answers: every config's sample stream must equal
// the shards=1 stream, including the churn phases that flap a hot tree edge
// through the front-end's epoch-coherent fan-out. Thread accounting:
// --threads T is the total footprint (split_threads).
constexpr size_t kShardFanout = 16;  // roots per tree_batch fan-out query

void bench_sharded(Table& table, const Options& opt, const Report& out,
                   const std::string& family, const Graph& g0) {
  struct SQuery {
    enum Kind { kFanoutQ, kDistanceQ, kReplacementQ } kind;
    std::array<Vertex, kShardFanout> roots;
    Vertex s, t;
    EdgeId e;
  };

  const std::vector<Vertex> hot_roots = spread_roots(g0, opt.hot);
  auto make = [&](uint64_t seq) {
    const uint64_t h = hash_combine(hash_combine(0x54a2d, opt.seed), seq);
    SQuery q;
    const uint64_t kind = hash_combine(h, 3) % 8;
    q.kind = kind < 6   ? SQuery::kFanoutQ
             : kind < 7 ? SQuery::kDistanceQ
                        : SQuery::kReplacementQ;
    q.s = hot_roots[h % hot_roots.size()];
    q.t = static_cast<Vertex>(hash_combine(h, 1) % g0.num_vertices());
    q.e = static_cast<EdgeId>(hash_combine(h, 2) % g0.num_edges());
    for (size_t j = 0; j < kShardFanout; ++j)
      q.roots[j] =
          static_cast<Vertex>(hash_combine(h, 16 + j) % g0.num_vertices());
    return q;
  };

  // A query's digest folds every answered distance, so one flipped hop in
  // one of a fan-out's 16 trees flips the sample -- element-wise stream
  // comparison across configs is a bit-identity check on every answer.
  auto run_squery = [&](ShardAggregator& fe, const SQuery& q) -> uint64_t {
    switch (q.kind) {
      case SQuery::kFanoutQ: {
        std::vector<SsspRequest> reqs;
        reqs.reserve(kShardFanout);
        for (const Vertex r : q.roots)
          reqs.push_back({r, {}, Direction::kOut});
        const auto trees = fe.tree_batch(reqs);
        uint64_t d = 0x54a2d;
        for (const auto& t : trees)
          d = hash_combine(d, static_cast<uint32_t>(t->hops(q.t)));
        return d;
      }
      case SQuery::kDistanceQ:
        return static_cast<uint32_t>(fe.distance(q.s, q.t));
      case SQuery::kReplacementQ:
        return static_cast<uint32_t>(fe.replacement_distance(q.s, q.t, q.e));
    }
    return 0;
  };
  auto ref_squery = [&](const IRpts& pi, const SQuery& q) -> uint64_t {
    switch (q.kind) {
      case SQuery::kFanoutQ: {
        uint64_t d = 0x54a2d;
        for (const Vertex r : q.roots)
          d = hash_combine(d, static_cast<uint32_t>(pi.distance(r, q.t)));
        return d;
      }
      case SQuery::kDistanceQ:
        return static_cast<uint32_t>(pi.distance(q.s, q.t));
      case SQuery::kReplacementQ:
        return static_cast<uint32_t>(pi.distance(q.s, q.t, FaultSet{q.e}));
    }
    return 0;
  };

  // Reference topologies: pristine and pristine-minus-victim, the two states
  // the churn flap alternates between. One victim for every config (drawn
  // off the pristine scheme, a hot tree's parent edge) keeps the sample
  // streams comparable and guarantees each flap invalidates cached trees.
  const IsolationRpts full_ref(g0, IsolationAtw(7));
  Rng rng(hash_combine(opt.seed, 0x54a2d));
  const EdgeId victim = random_tree_edge(full_ref.spt(hot_roots[0]), rng);
  const Edge ends = g0.endpoints(victim);
  Graph removed_g = g0;
  {
    GraphDelta rm = GraphDelta::remove(victim);
    removed_g.apply(rm);
  }
  const IsolationRpts removed_ref(removed_g, IsolationAtw(7));

  const size_t sq = std::max<size_t>(64, opt.queries / 40);
  const size_t cq = std::max<size_t>(16, sq / 4);
  // Even flap count: the run ends healed, so every config finishes on the
  // pristine topology no matter where its churn phases sampled.
  const size_t sflaps = opt.flaps >= 4 ? 4 : 2;

  for (int threads : opt.threads) {
    const ThreadSplit ts = split_threads(threads);
    const BatchSsspEngine engine(ts.engine);
    // Digest stream of the shards=1 config: the reference every other
    // config must match element-wise. Sample order is deterministic (phases
    // sequential, per-worker samples merged in worker order), so positional
    // comparison is exact.
    std::vector<uint64_t> ref_digests;
    for (const size_t shards_n : {size_t{1}, size_t{2}, size_t{4}}) {
      Graph g = g0;  // private copy: the churn phases mutate it
      const IsolationRpts pi(g, IsolationAtw(7));
      FrontEndConfig fc;
      fc.num_shards = shards_n;
      fc.shard = out.config(engine);
      fc.shard.cache.byte_budget /= shards_n;
      fc.tracer = out.tracer;
      ShardAggregator fe(pi, fc);
      auto ask = [&](const SQuery& q) { return run_squery(fe, q); };

      // Phase 0: steady state on the pristine topology (the timed
      // window). Then sflaps churn phases, each after one edge flap
      // applied through the epoch-coherent fan-out. Phase p odd = victim
      // removed, even = healed back to pristine; every phase's samples are
      // audited outside the timing windows.
      auto phase_run = [&](uint64_t phase, size_t nq) {
        const size_t per_thread =
            std::max<size_t>(1, nq / static_cast<size_t>(ts.drivers));
        return run_closed_loop(ts.drivers, per_thread, make, ask, 4, phase);
      };
      std::vector<uint64_t> digests;
      Check check;
      auto audit = [&](const auto& run, uint64_t phase) {
        const IRpts& ref = phase % 2 == 1 ? removed_ref : full_ref;
        check += verify(run.samples, [&](const SQuery& q, uint64_t got) {
          return got == ref_squery(ref, q);
        });
        for (const auto& s : run.samples) digests.push_back(s.second);
      };
      const auto steady = phase_run(0, sq);
      audit(steady, 0);
      uint64_t carried = 0, invalidated = 0, prewarmed = 0, repaired = 0;
      for (size_t f = 0; f < sflaps; ++f) {
        const UpdateResult ur =
            f % 2 == 0
                ? fe.apply_update(g, GraphDelta::remove(victim))
                : fe.apply_update(g, GraphDelta::insert(ends.u, ends.v));
        carried += ur.carried;
        invalidated += ur.invalidated;
        prewarmed += ur.prewarmed;
        repaired += ur.repaired;
        audit(phase_run(f + 1, cq), f + 1);
      }

      if (ref_digests.empty()) ref_digests = digests;
      uint64_t match = 0;
      if (ref_digests.size() == digests.size())
        for (size_t i = 0; i < digests.size(); ++i)
          match += digests[i] == ref_digests[i];

      const FrontEndStats fs = fe.stats();
      const Measurement m = measure(steady);
      const double subs_per_subq =
          fs.subqueries > 0 ? static_cast<double>(fs.submissions) /
                                  static_cast<double>(fs.subqueries)
                            : 0;
      const std::string mode = "shards" + std::to_string(shards_n);
      out.dump(fe.metrics(), "serve_sharded", family, threads, mode);
      table.add_row(
          family, threads, static_cast<uint64_t>(shards_n), m.qps,
          fs.subqueries, fs.submissions, subs_per_subq, fs.remote_hits,
          match == digests.size() && check.correct == check.checked ? "yes"
                                                                    : "NO");
      out.row("serve_sharded", family, g0, threads, mode, check)
          .field("driver_threads", ts.drivers)
          .field("engine_threads", ts.engine)
          .field("shards", shards_n)
          .field("fanout_k", kShardFanout)
          .field("queries", fs.queries)
          .field("subqueries", fs.subqueries)
          .field("submissions", fs.submissions)
          .field("submissions_per_subquery", subs_per_subq)
          .field("remote_hits", fs.remote_hits)
          .field("aggregated", fs.aggregated)
          .field("fanouts", fs.fanouts)
          .field("routed_epoch", fe.routed_epoch())
          .field("qps", m.qps)
          .field("p50_us", m.p50_us)
          .field("p99_us", m.p99_us)
          .field("flaps", sflaps)
          .field("carried", carried)
          .field("invalidated", invalidated)
          .field("prewarmed", prewarmed)
          .field("repaired", repaired)
          .field("samples", digests.size())
          .field("samples_match", match);
    }
  }
}

int run(const Options& opt) {
  std::cout << "Serving bench: closed-loop mixed (s, t, F) queries against "
               "OracleServer.\nhot root set = "
            << opt.hot << " sources; mode off = recompute per fetch, on = "
            << opt.shards << "-shard cache (" << opt.budget_mb
            << " MB) + single-flight batcher.\n\n";
  Table table({"family", "n", "m", "threads", "cache", "qps", "p50_us",
               "p99_us", "hit_rate", "speedup"});
  Table scan_table({"family", "threads", "admission", "qps", "hit_rate",
                    "base_hit_rate", "evictions"});
  Table churn_table({"family", "threads", "qps", "carried", "invalidated",
                     "carried_frac", "apply_ms", "hit_rate"});
  Table burst_table({"family", "threads", "mode", "flaps", "apply_ms",
                     "heal_ms", "carried", "invalidated", "repaired",
                     "recomputed"});
  Table rcu_table({"family", "threads", "mode", "qps_churn", "p99_quiet_us",
                   "p99_churn_us", "p99_ratio", "updates", "answers_ok"});
  Table eps_table({"family", "threads", "epsilon", "tier", "qps_sustained",
                   "carried_frac", "hit_rate", "max_excess", "in_bound"});
  Table large_table({"family", "n", "threads", "mode", "qps", "hit_rate",
                     "trees", "bytes_per_tree", "load_ms", "mmap"});
  Table sharded_table({"family", "threads", "shards", "qps", "subqueries",
                       "submissions", "subs_per_subq", "remote_hits",
                       "answers_ok"});
  JsonRows json;

  // Observability sinks. The tracer (1-in-256 sampling) is shared by every
  // serving-mode server; the metrics rows get one registry snapshot per
  // measured stack, dumped after its window closes (snapshotting is never
  // on the measured path).
  JsonRows metrics_json;
  std::ofstream trace_out;
  std::optional<obs::Tracer> tracer;
  if (!opt.trace_path.empty()) {
    trace_out.open(opt.trace_path);
    if (!trace_out) {
      std::cerr << "cannot open --trace-out path: " << opt.trace_path << "\n";
      return 1;
    }
    tracer.emplace(&trace_out);
  }
  Report out{opt, json};
  if (!opt.metrics_path.empty()) out.metrics = &metrics_json;
  if (tracer) out.tracer = &*tracer;

  const Graph g400 = gnp_connected(400, 16.0 / 400, 1234);
  if (!opt.graph_file.empty()) {
    // The --graph-file axis: the serve scenario runs on the real graph
    // (when it fits the full cache_off baseline; larger graphs are the
    // serve_large scenario's subject below).
    Graph file_graph;
    try {
      file_graph = load_graph_auto(opt.graph_file);
    } catch (const std::exception& e) {
      std::cerr << "--graph-file: " << e.what() << "\n";
      return 1;
    }
    const auto slash = opt.graph_file.find_last_of('/');
    const std::string family =
        slash == std::string::npos ? opt.graph_file
                                   : opt.graph_file.substr(slash + 1);
    if (file_graph.num_vertices() <= 10000) {
      bench_family(table, opt, out, family, file_graph);
    } else {
      std::cout << "--graph-file n=" << file_graph.num_vertices()
                << " skips the per-fetch-recompute baseline; see the "
                   "serve_large rows.\n";
    }
  } else {
    bench_family(table, opt, out, "gnp(400)", g400);
    if (!opt.small) {
      bench_family(table, opt, out, "gnp(2000)",
                   gnp_connected(2000, 8.0 / 2000, 1236));
      bench_family(table, opt, out, "cliquechain(20,20)",
                   clique_chain(20, 20));
    }
  }
  bench_fault_scan(scan_table, opt, out, "gnp(400)", g400);
  bench_churn(churn_table, opt, out, "gnp(400)", g400);
  bench_burst(burst_table, opt, out, "gnp(400)", g400);
  bench_churn_rcu(rcu_table, opt, out, "gnp(400)", g400);
  bench_epsilon(eps_table, opt, out, "gnp(400)", g400);
  bench_sharded(sharded_table, opt, out, "gnp(400)", g400);
  bench_large(large_table, opt, out);

  table.print();
  std::cout << "\nFault-scan admission scenario (small budget, sweeping "
               "fault keys;\nflat = protected_fraction 0, segmented = base "
               "trees protected):\n";
  scan_table.print();
  std::cout << "\nLive-churn scenario (" << opt.flaps
            << " seeded edge flaps through apply_update, seed " << opt.seed
            << ";\ncarried = trees rekeyed forward zero-copy, invalidated = "
               "affected trees dropped + pre-warmed):\n";
  churn_table.print();
  std::cout << "\nBurst-update scenario (" << opt.flaps
            << " removals + heal, seed " << opt.seed
            << "; single = one apply_update per delta, burst = ONE "
               "apply_updates batch\n-- one cache walk, one epoch bump, one "
               "incremental-repair engine batch for the whole burst; median "
               "of "
            << kTrials << " trials):\n";
  burst_table.print();
  std::cout << "\nEpoch-pinned (RCU) scenario: the same workload quiet vs "
               "under a background mutator flapping one hot edge;\nmode rcu "
               "= lock-free epoch-pinned reads. p99_ratio = p99_churn / "
               "p99_quiet;\n"
               "answers_ok = every sampled churn answer matched a rebuild "
               "of one of the two live topologies:\n";
  rcu_table.print();
  std::cout << "\nApproximate-tier scenario: the same churn-heavy schedule "
               "served exact (epsilon 0) vs approximate (--epsilon), median "
               "of "
            << kTrials
            << " trials;\nqps_sustained bills query AND update walls, "
               "max_excess = worst sampled (approx - exact) / exact,\n"
               "in_bound = every sampled answer within the (1+eps)^d * d "
               "stretch contract:\n";
  eps_table.print();
  std::cout << "\nSharded-serving scenario: root-partitioned OracleShard "
               "fleet behind the group-by-shard front-end (one serve_batch\n"
               "per touched shard per query); subs_per_subq = submissions / "
               "routed sub-queries (1.0 = a naive front-end),\nanswers_ok = "
               "every sampled digest bit-identical to the shards=1 stream "
               "AND to a from-scratch\nrebuild of its churn phase's "
               "topology:\n";
  sharded_table.print();
  std::cout << "\nLarge-graph scenario: skewed hot-root traffic against a "
               "budget sized to half the hot set's FAT trees;\nmode compact "
               "= the published 6 B/vertex trees (fat would be 12), "
               "compact_mmap = the same\nserved from the frozen-CSR restart "
               "path (pack_ms/load_ms in the JSON rows). Same budget, twice "
               "the trees:\n";
  large_table.print();
  std::cout << "Expected shape: cache_on hit rate approaches 1 on the "
               "repeated-root workload, so qps is bounded by tree lookups\n"
               "+ O(d) path walks instead of full Dijkstra recomputes; "
               "speedup therefore grows with n. p99 on cache_on shows the\n"
               "cold-miss tail that the coalescing batcher amortizes across "
               "concurrent callers.\n";
  if (!opt.json_path.empty() &&
      !json.write_file(opt.json_path, std::cout, std::cerr))
    return 1;
  if (!opt.metrics_path.empty() &&
      !metrics_json.write_file(opt.metrics_path, std::cout, std::cerr))
    return 1;
  if (tracer) {
    std::cout << "traces: sampled " << tracer->emitted() << " of "
              << tracer->started() << " queries -> " << opt.trace_path
              << " (metrics " << metrics_build() << ")\n";
  }
  return 0;
}

}  // namespace
}  // namespace restorable

int main(int argc, char** argv) {
  return restorable::run(restorable::parse_options(argc, argv));
}
