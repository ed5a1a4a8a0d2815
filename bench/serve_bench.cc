// Serving-layer benchmark: closed-loop multi-threaded query driver over
// OracleServer, cache-on versus cache-off.
//
// The workload models the system's north-star shape -- heavy repeated
// traffic against a fixed scheme: T closed-loop worker threads each issue a
// deterministic stream of mixed (s, t, F) queries whose sources concentrate
// on a hot root set (every consumer of a routing scheme asks about the same
// few sources over and over). Cache-on serves trees from the sharded SPT
// store through the single-flight batcher; cache-off recomputes a tiebroken
// Dijkstra per fetch -- the honest baseline of what every query cost before
// src/serve/ existed.
//
// Per (family, threads, mode) row: throughput (qps), latency percentiles
// (p50/p99 us), cache hit rate, coalescing stats, and an answer-correctness
// spot check against the scheme computed directly. JSON rows feed
// BENCH_SERVE.json (committed trajectory) and the CI bench-smoke artifact.
//
// A second scenario (bench=serve_scan rows) stresses cache admission: a
// fault-tree scan (each query computes a fresh single-fault tree) runs
// against a small budget, once with the flat LRU (protected_fraction = 0)
// and once with segmented admission. The judged signal is base_hit_rate:
// segmented admission must keep the hot base trees resident under the scan.
//
// A third scenario (bench=serve_churn rows) exercises the dynamic-update
// pipeline: query phases interleaved with seeded edge flaps (remove a hot
// tree edge or a random edge, then put it back) applied through
// OracleServer::apply_update. Reported per (family, threads) row:
// invalidated-vs-carried-forward tree counts, post-update recovery latency
// (first queries of each post-flap phase) versus steady-state, the
// per-phase hit-rate trajectory, and a correctness spot check of sampled
// answers against a from-scratch IRpts rebuild of each phase's topology.
//
// A fourth scenario (bench=serve_burst rows) measures the batched-delta
// pipeline: the same k removals applied as k apply_update calls versus ONE
// apply_updates batch (one cache walk, one epoch bump, one incremental-
// repair engine batch), reporting apply_ms, repaired-vs-recomputed counts
// and recovery latency. CI asserts the burst beats the k single applies.
//
// A fifth scenario (bench=serve_churn_rcu rows) isolates the QUERY-SIDE
// cost of updates: the same closed-loop workload measured quiet and then
// under a background mutator thread continuously flapping one hot-tree
// edge, with the lock-free epoch-pinned reads every query takes (mode
// `rcu`). Reported per threads row: p99 quiet vs under churn and their
// ratio, updates applied during the churn window, generation
// publish/retire counters, and a correctness check of sampled answers
// against from-scratch rebuilds of both live topologies. CI asserts shape
// + correctness only (no timing asserts -- shared 1-core runners).
//
// Scenario axes:
//   --threads 1,4     comma list of closed-loop worker counts
//   --queries N       queries per (family, threads, mode) measurement
//   --shards K        cache shards            (default 16)
//   --budget-mb M     cache byte budget       (default 256)
//   --hot H           size of the hot root set (default 8)
//   --max-batch B     cap per-flush batcher drain (default 0 = unbounded)
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
  size_t max_batch = 0;
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

// Observability sinks threaded through every scenario: the metrics rows
// accumulate one registry snapshot per measured serving stack, the tracer
// (when --trace-out is given) is shared by every serving-mode server.
struct ObsSinks {
  JsonRows* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

// One registry snapshot -> JSON rows, tagged so the flat per-metric rows can
// be grouped back into their (bench, family, threads, mode) measurement.
void dump_registry(const ObsSinks& sinks, obs::MetricsRegistry& registry,
                   const char* bench, const std::string& family, int threads,
                   const std::string& mode) {
  if (!sinks.metrics) return;
  registry.snapshot().to_json(*sinks.metrics, [&](JsonRows& rows) {
    rows.field("bench", bench)
        .field("family", family)
        .field("threads", threads)
        .field("mode", mode);
  });
}

void dump_metrics(const ObsSinks& sinks, OracleServer& server,
                  const char* bench, const std::string& family, int threads,
                  const char* mode) {
  dump_registry(sinks, server.metrics(), bench, family, threads, mode);
}

// Closed-loop thread accounting for scenarios whose engine computes
// CONCURRENTLY with the drivers (serve_large, serve_sharded): --threads T
// budgets the TOTAL thread footprint of a measurement, split into ceil(T/2)
// closed-loop drivers and T - drivers engine workers. The earlier serve_large
// rows spawned T drivers AND a T-thread engine -- a 2x oversubscription that
// made per-thread scaling claims dishonest. T = 1 keeps a documented
// 1 driver + 1 engine-worker floor (a BatchSsspEngine needs at least one
// worker to flush); every affected JSON row records driver_threads and
// engine_threads so the artifact is explicit about what actually ran.
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
// every serve row so BENCH_SERVE.json can carry both builds' points
// side by side (the metrics-overhead acceptance gate compares them).
const char* metrics_build() {
  return obs::kEnabled ? "on" : "compiled_out";
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* flag) { return flag_value(argc, argv, i, flag); };
    if (const char* v = value("--threads")) {
      opt.threads.clear();
      for (const char* p = v; *p;) {
        opt.threads.push_back(std::atoi(p));
        while (*p && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    } else if (const char* v = value("--queries")) {
      opt.queries = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--shards")) {
      opt.shards = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--budget-mb")) {
      opt.budget_mb = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--hot")) {
      opt.hot = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--max-batch")) {
      opt.max_batch = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--flaps")) {
      opt.flaps = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--epsilon")) {
      opt.epsilons.clear();
      for (const char* p = v; *p;) {
        opt.epsilons.push_back(std::atof(p));
        while (*p && *p != ',') ++p;
        if (*p == ',') ++p;
      }
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
  if (opt.threads.empty()) opt.threads.push_back(1);
  for (int t : opt.threads) {
    if (t < 1) {
      std::cerr << "--threads values must be positive integers\n";
      std::exit(2);
    }
  }
  if (opt.small) {
    opt.queries = std::min<size_t>(opt.queries, 4000);
    opt.flaps = std::min<size_t>(opt.flaps, 6);
  }
  if (opt.flaps == 0) {
    std::cerr << "--flaps must be positive\n";
    std::exit(2);
  }
  for (double e : opt.epsilons) {
    if (e <= 0.0 || quantize_epsilon(e) == 0) {
      std::cerr << "--epsilon values must quantize to a positive slack\n";
      std::exit(2);
    }
  }
  return opt;
}

// One deterministic query in a worker's stream. Mix: mostly distances with
// occasional fault, some replacement-path queries, a few path extractions.
struct Query {
  enum Kind { kDistance, kFaultDistance, kReplacement, kPath } kind;
  Vertex s, t;
  EdgeId e;
};

Query make_query(const Graph& g, std::span<const Vertex> hot_roots,
                 uint64_t seed, uint64_t seq) {
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
      return pi.distance(q.s, q.t, FaultSet{q.e});
    case Query::kReplacement:
      return pi.distance(q.s, q.t, FaultSet{q.e});
    case Query::kPath:
      return static_cast<int32_t>(pi.path(q.s, q.t).length());
  }
  return kUnreachable;
}

// ---------------------------------------------------------------------------
// Workload samplers. Drivers must measure the serving stack, not themselves:
// any per-sample work that grows with n (rejection loops whose acceptance
// probability shrinks, probe SSSPs) is precomputed into flat prefix arrays up
// front, and the precompute wall time is reported separately (gen_ms) so
// large-n rows stay honest about what the driver cost.

// Prefix array of a tree's vertices that have a parent edge: flap-victim
// draws become one O(1) index instead of a rejection loop that degenerates
// when most of the graph is unreachable from the root.
std::vector<Vertex> parented_vertices(const Spt& tree) {
  std::vector<Vertex> out;
  out.reserve(tree.num_vertices());
  for (Vertex v = 0; v < tree.num_vertices(); ++v)
    if (tree.parent(v) != kNoVertex) out.push_back(v);
  return out;
}

struct Measurement {
  double qps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double wall_ms = 0;
  size_t checked = 0;
  size_t correct = 0;
};

Measurement drive(OracleServer& server, const IRpts& pi, const Graph& g,
                  std::span<const Vertex> hot_roots, int threads,
                  size_t queries, uint64_t seed) {
  Measurement m;
  const size_t per_thread = queries / threads;
  std::vector<std::vector<double>> latencies(threads);
  // Answers sampled inside the loop, verified AFTER the clock stops -- a
  // reference Dijkstra inside the measurement window would bill its cost to
  // the serving stack and deflate qps.
  std::vector<std::vector<std::pair<Query, int32_t>>> samples(threads);

  Stopwatch wall;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      auto& lat = latencies[w];
      lat.reserve(per_thread);
      for (size_t i = 0; i < per_thread; ++i) {
        const Query q = make_query(
            g, hot_roots, seed, static_cast<uint64_t>(w) * per_thread + i);
        Stopwatch sw;
        const int32_t got = run_query(server, q);
        lat.push_back(sw.micros());
        if (i % 64 == 0) samples[w].emplace_back(q, got);
      }
    });
  }
  for (auto& t : workers) t.join();
  m.wall_ms = wall.millis();

  // Spot-check ~1/64 of answers against the scheme computed directly.
  for (const auto& per_worker : samples) {
    for (const auto& [q, got] : per_worker) {
      ++m.checked;
      if (got == reference_answer(pi, q)) ++m.correct;
    }
  }

  std::vector<double> all;
  for (auto& lat : latencies) all.insert(all.end(), lat.begin(), lat.end());
  std::sort(all.begin(), all.end());
  if (!all.empty()) {
    m.p50_us = all[all.size() / 2];
    m.p99_us = all[std::min(all.size() - 1, all.size() * 99 / 100)];
  }
  m.qps = static_cast<double>(all.size()) / (m.wall_ms / 1e3);
  return m;
}

void bench_family(Table& table, JsonRows& json, const Options& opt,
                  const ObsSinks& sinks, const std::string& family,
                  const Graph& g) {
  const IsolationRpts pi(g, IsolationAtw(7));
  std::vector<Vertex> hot_roots;
  for (size_t i = 0; i < opt.hot; ++i)
    hot_roots.push_back(static_cast<Vertex>(
        (static_cast<uint64_t>(i) * g.num_vertices()) / opt.hot));

  for (int threads : opt.threads) {
    const BatchSsspEngine engine(threads);

    // Baseline: every fetch recomputes (no cache, no coalescing).
    ServerConfig off_cfg;
    off_cfg.enable_cache = false;
    off_cfg.enable_coalescing = false;
    off_cfg.engine = &engine;
    OracleServer off(pi, off_cfg);
    const Measurement moff =
        drive(off, pi, g, hot_roots, threads, opt.queries, opt.seed);

    // Serving stack: sharded cache + single-flight batcher.
    ServerConfig on_cfg;
    on_cfg.cache.shards = opt.shards;
    on_cfg.cache.byte_budget = opt.budget_mb << 20;
    on_cfg.max_batch = opt.max_batch;
    on_cfg.engine = &engine;
    on_cfg.tracer = sinks.tracer;
    OracleServer on(pi, on_cfg);
    const Measurement mon =
        drive(on, pi, g, hot_roots, threads, opt.queries, opt.seed);
    dump_metrics(sinks, off, "serve", family, threads, "cache_off");
    dump_metrics(sinks, on, "serve", family, threads, "cache_on");

    const auto cache_stats = on.cache()->stats();
    const auto batch_stats = on.batcher()->stats();
    // Outcome classes + latency decomposition, composed from ONE registry
    // snapshot (OracleServer::stats()); per-class splits and histograms
    // live in the --metrics-out document.
    const ServerStats sstats = on.stats();
    const double speedup = mon.qps / moff.qps;
    // Bytes of tree freshly materialized per query: the zero-copy handle
    // path makes this collapse on repeated-root workloads (hits alias the
    // resident tree instead of copying it).
    const double on_bytes_per_query =
        static_cast<double>(on.bytes_materialized()) /
        static_cast<double>(std::max<uint64_t>(1, on.queries_served()));
    const double off_bytes_per_query =
        static_cast<double>(off.bytes_materialized()) /
        static_cast<double>(std::max<uint64_t>(1, off.queries_served()));
    std::string batch_hist;
    for (size_t b = 0; b < CoalescingBatcher::kHistBuckets; ++b) {
      if (b) batch_hist += ',';
      batch_hist += std::to_string(batch_stats.batch_hist[b]);
    }

    table.add_row(family, g.num_vertices(), g.num_edges(), threads, "off",
                  moff.qps, moff.p50_us, moff.p99_us, 0.0, 1.0);
    table.add_row(family, g.num_vertices(), g.num_edges(), threads, "on",
                  mon.qps, mon.p50_us, mon.p99_us, cache_stats.hit_rate(),
                  speedup);

    json.row()
        .field("bench", "serve")
        .field("family", family)
        .field("n", static_cast<uint64_t>(g.num_vertices()))
        .field("m", static_cast<uint64_t>(g.num_edges()))
        .field("threads", threads)
        .field("shards", static_cast<uint64_t>(opt.shards))
        .field("budget_mb", static_cast<uint64_t>(opt.budget_mb))
        .field("hot_roots", static_cast<uint64_t>(hot_roots.size()))
        .field("queries", static_cast<uint64_t>(opt.queries))
        .field("seed", opt.seed)
        .field("mode", "cache_off")
        .field("metrics", metrics_build())
        .field("qps", moff.qps)
        .field("p50_us", moff.p50_us)
        .field("p99_us", moff.p99_us)
        .field("hit_rate", 0.0)
        .field("speedup_vs_off", 1.0)
        .field("bytes_per_query", off_bytes_per_query)
        .field("checked", static_cast<uint64_t>(moff.checked))
        .field("correct", static_cast<uint64_t>(moff.correct))
        .field("hw_threads",
               static_cast<uint64_t>(std::thread::hardware_concurrency()));
    json.row()
        .field("bench", "serve")
        .field("family", family)
        .field("n", static_cast<uint64_t>(g.num_vertices()))
        .field("m", static_cast<uint64_t>(g.num_edges()))
        .field("threads", threads)
        .field("shards", static_cast<uint64_t>(opt.shards))
        .field("budget_mb", static_cast<uint64_t>(opt.budget_mb))
        .field("hot_roots", static_cast<uint64_t>(hot_roots.size()))
        .field("queries", static_cast<uint64_t>(opt.queries))
        .field("seed", opt.seed)
        .field("mode", "cache_on")
        .field("metrics", metrics_build())
        .field("qps", mon.qps)
        .field("p50_us", mon.p50_us)
        .field("p99_us", mon.p99_us)
        .field("hit_rate", cache_stats.hit_rate())
        .field("base_hit_rate", cache_stats.base_hit_rate())
        .field("speedup_vs_off", speedup)
        .field("bytes_per_query", on_bytes_per_query)
        .field("cache_hits", cache_stats.hits)
        .field("cache_misses", cache_stats.misses)
        .field("cache_entries", static_cast<uint64_t>(cache_stats.entries))
        .field("cache_bytes", static_cast<uint64_t>(cache_stats.bytes))
        .field("cache_sum_shard_peak_bytes",
               static_cast<uint64_t>(cache_stats.sum_shard_peak_bytes))
        .field("protected_bytes",
               static_cast<uint64_t>(cache_stats.protected_bytes))
        .field("protected_entries",
               static_cast<uint64_t>(cache_stats.protected_entries))
        .field("evictions", cache_stats.evictions)
        .field("coalesced", batch_stats.coalesced)
        .field("computed", batch_stats.computed)
        .field("computed_bytes", batch_stats.computed_bytes)
        .field("flushes", batch_stats.flushes)
        .field("max_batch", batch_stats.max_batch)
        .field("max_batch_cap", static_cast<uint64_t>(opt.max_batch))
        .field("max_queue_depth", batch_stats.max_queue_depth)
        .field("batch_hist", batch_hist)
        .field("base_hit", sstats.base_hit)
        .field("fault_hit", sstats.fault_hit)
        .field("miss_coalesced", sstats.miss_coalesced)
        .field("miss_leader", sstats.miss_leader)
        .field("queue_wait_ms", static_cast<double>(sstats.queue_wait_ns) / 1e6)
        .field("coalesce_wait_ms",
               static_cast<double>(sstats.coalesce_wait_ns) / 1e6)
        .field("compute_ms", static_cast<double>(sstats.compute_ns) / 1e6)
        .field("repair_ms", static_cast<double>(sstats.repair_ns) / 1e6)
        .field("repaired", sstats.repaired)
        .field("recomputed", sstats.recomputed)
        .field("stability_fast_paths", on.stability_fast_paths())
        .field("checked", static_cast<uint64_t>(mon.checked))
        .field("correct", static_cast<uint64_t>(mon.correct))
        .field("hw_threads",
               static_cast<uint64_t>(std::thread::hardware_concurrency()));
  }
}

// Admission-policy scenario: a closed-loop mix of hot base-tree queries and
// a sweeping fault-tree scan (every fault key distinct, so each one computes
// and inserts a fresh fault tree) against a budget sized to hold the hot
// base trees plus only a handful of fault trees. Flat LRU lets the scan
// churn the base trees out; segmented admission confines the scan to the
// probationary segment. One JSON row per (threads, admission) pair.
void bench_fault_scan(Table& scan_table, JsonRows& json, const Options& opt,
                      const ObsSinks& sinks, const std::string& family,
                      const Graph& g) {
  const IsolationRpts pi(g, IsolationAtw(7));
  std::vector<Vertex> hot_roots;
  for (size_t i = 0; i < opt.hot; ++i)
    hot_roots.push_back(static_cast<Vertex>(
        (static_cast<uint64_t>(i) * g.num_vertices()) / opt.hot));
  const size_t probe_bytes = pi.spt(hot_roots[0]).memory_bytes();
  // Hot base trees + ~8 fault trees of headroom, in one shard so the
  // eviction pressure is undiluted.
  const size_t budget = (opt.hot + 8) * (probe_bytes + 1024);

  for (int threads : opt.threads) {
    const BatchSsspEngine engine(threads);
    for (const double fraction : {0.0, 0.5}) {
      ServerConfig cfg;
      cfg.cache.shards = 1;
      cfg.cache.byte_budget = budget;
      cfg.cache.protected_fraction = fraction;
      cfg.max_batch = opt.max_batch;
      cfg.engine = &engine;
      cfg.tracer = sinks.tracer;
      OracleServer server(pi, cfg);

      const size_t per_thread = opt.queries / threads;
      std::vector<std::vector<std::pair<Query, int32_t>>> samples(threads);
      Stopwatch wall;
      std::vector<std::thread> workers;
      workers.reserve(threads);
      for (int w = 0; w < threads; ++w) {
        workers.emplace_back([&, w] {
          for (size_t i = 0; i < per_thread; ++i) {
            const uint64_t seq = static_cast<uint64_t>(w) * per_thread + i;
            const uint64_t h = hash_combine(hash_combine(0x5ca9, opt.seed), seq);
            Query q;
            q.s = hot_roots[h % hot_roots.size()];
            q.t = static_cast<Vertex>(hash_combine(h, 1) % g.num_vertices());
            // Every other query scans a fresh fault; the rest read the hot
            // base trees the policy is supposed to protect.
            if (seq % 2 == 0) {
              q.kind = Query::kDistance;
              q.e = 0;
            } else {
              q.kind = Query::kFaultDistance;
              q.e = static_cast<EdgeId>(seq / 2 % g.num_edges());
            }
            const int32_t got = run_query(server, q);
            if (i % 64 == 0) samples[w].emplace_back(q, got);
          }
        });
      }
      for (auto& t : workers) t.join();
      const double wall_ms = wall.millis();

      size_t checked = 0, correct = 0;
      for (const auto& per_worker : samples)
        for (const auto& [q, got] : per_worker) {
          ++checked;
          if (got == reference_answer(pi, q)) ++correct;
        }

      const auto stats = server.cache()->stats();
      const double qps = static_cast<double>(per_thread) * threads /
                         (wall_ms / 1e3);
      const char* mode = fraction > 0 ? "scan_segmented" : "scan_flat";
      dump_metrics(sinks, server, "serve_scan", family, threads, mode);
      scan_table.add_row(family, threads, mode, qps, stats.hit_rate(),
                         stats.base_hit_rate(), stats.evictions);
      json.row()
          .field("bench", "serve_scan")
          .field("family", family)
          .field("n", static_cast<uint64_t>(g.num_vertices()))
          .field("m", static_cast<uint64_t>(g.num_edges()))
          .field("threads", threads)
          .field("mode", mode)
          .field("protected_fraction", fraction)
          .field("budget_bytes", static_cast<uint64_t>(budget))
          .field("queries", static_cast<uint64_t>(per_thread * threads))
          .field("seed", opt.seed)
          .field("qps", qps)
          .field("hit_rate", stats.hit_rate())
          .field("base_hit_rate", stats.base_hit_rate())
          .field("base_hits", stats.base_hits)
          .field("base_misses", stats.base_misses)
          .field("evictions", stats.evictions)
          .field("cache_sum_shard_peak_bytes", static_cast<uint64_t>(stats.sum_shard_peak_bytes))
          .field("protected_bytes",
                 static_cast<uint64_t>(stats.protected_bytes))
          .field("checked", static_cast<uint64_t>(checked))
          .field("correct", static_cast<uint64_t>(correct))
          .field("hw_threads",
                 static_cast<uint64_t>(std::thread::hardware_concurrency()));
    }
  }
}

// Dynamic-update scenario: phases of closed-loop queries interleaved with
// seeded edge flaps through OracleServer::apply_update. Every other flap
// removes an edge off a hot root's current tree (guaranteed to invalidate
// that root), the rest remove a uniformly random present edge; each removal
// is healed by re-inserting the same endpoints (tombstone resurrection, so
// labels -- and therefore tiebreak weights -- are stable). Reported: carried
// vs invalidated tree counts, apply_update latency, recovery-vs-steady query
// latency, the per-phase hit-rate trajectory, and sampled answers verified
// against a from-scratch rebuild of each phase's exact topology.
void bench_churn(Table& churn_table, JsonRows& json, const Options& opt,
                 const ObsSinks& sinks, const std::string& family,
                 const Graph& g0) {
  for (int threads : opt.threads) {
    Graph g = g0;  // the mutable working copy this scheme serves
    const IsolationRpts pi(g, IsolationAtw(7));
    const BatchSsspEngine engine(threads);
    ServerConfig cfg;
    cfg.cache.shards = opt.shards;
    cfg.cache.byte_budget = opt.budget_mb << 20;
    cfg.max_batch = opt.max_batch;
    cfg.engine = &engine;
    cfg.tracer = sinks.tracer;
    OracleServer server(pi, cfg);

    std::vector<Vertex> hot_roots;
    for (size_t i = 0; i < opt.hot; ++i)
      hot_roots.push_back(static_cast<Vertex>(
          (static_cast<uint64_t>(i) * g.num_vertices()) / opt.hot));

    const size_t phases = opt.flaps + 1;
    const size_t per_thread = std::max<size_t>(
        1, opt.queries / phases / static_cast<size_t>(threads));
    Rng flap_rng(hash_combine(opt.seed, 0xf1a9));

    struct Sample {
      size_t phase;
      Query q;
      int32_t got;
    };
    std::vector<Graph> snapshots;  // topology per phase, for verification
    std::vector<std::vector<Sample>> samples(threads);
    std::vector<double> recovery_lat, steady_lat;
    double query_wall_ms = 0, apply_ms = 0;
    size_t carried = 0, invalidated = 0, purged = 0, prewarmed = 0;
    std::string trajectory;
    uint64_t last_hits = 0, last_misses = 0;
    EdgeId flapped = kNoEdge;  // currently-removed edge awaiting re-insert
    Vertex fu = 0, fv = 0;
    size_t removals = 0;

    for (size_t phase = 0; phase < phases; ++phase) {
      snapshots.push_back(g);
      std::vector<std::vector<double>> rec(threads), steady(threads);
      Stopwatch wall;
      std::vector<std::thread> workers;
      workers.reserve(threads);
      for (int w = 0; w < threads; ++w) {
        workers.emplace_back([&, w, phase] {
          for (size_t i = 0; i < per_thread; ++i) {
            const uint64_t seq =
                (static_cast<uint64_t>(phase) * threads + w) * per_thread + i;
            const Query q = make_query(g, hot_roots, opt.seed, seq);
            Stopwatch sw;
            const int32_t got = run_query(server, q);
            // The first queries of a post-flap phase pay the recovery cost
            // (whatever pre-warming left cold); the rest are steady state.
            ((phase > 0 && i < 8) ? rec : steady)[w].push_back(sw.micros());
            if (i % 32 == 0) samples[w].push_back({phase, q, got});
          }
        });
      }
      for (auto& t : workers) t.join();
      query_wall_ms += wall.millis();
      for (int w = 0; w < threads; ++w) {
        recovery_lat.insert(recovery_lat.end(), rec[w].begin(), rec[w].end());
        steady_lat.insert(steady_lat.end(), steady[w].begin(),
                          steady[w].end());
      }
      const auto cs = server.cache()->stats();
      const uint64_t ph = cs.hits - last_hits, pm = cs.misses - last_misses;
      last_hits = cs.hits;
      last_misses = cs.misses;
      if (phase) trajectory += ',';
      char buf[16];
      std::snprintf(buf, sizeof buf, "%.4f",
                    ph + pm ? static_cast<double>(ph) /
                                  static_cast<double>(ph + pm)
                            : 0.0);
      trajectory += buf;

      if (phase + 1 == phases) break;
      // The flap. Removals alternate hot-tree edges (provably affecting the
      // hot root) with uniform present edges; each is healed next time.
      GraphDelta d;
      if (flapped != kNoEdge) {
        d = GraphDelta::insert(fu, fv);
      } else if (removals++ % 2 == 0) {
        const Vertex h = hot_roots[flap_rng.next_below(hot_roots.size())];
        const auto tree = server.tree({h, {}, Direction::kOut});
        const auto pool = parented_vertices(*tree);
        const Vertex x = pool[flap_rng.next_below(pool.size())];
        d = GraphDelta::remove(tree->parent_edge(x));
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

    // Verify the sampled answers against a from-scratch rebuild of each
    // phase's exact topology (same policy seed => same scheme), outside the
    // measurement window.
    size_t checked = 0, correct = 0;
    for (size_t phase = 0; phase < phases; ++phase) {
      const IsolationRpts ref(snapshots[phase], IsolationAtw(7));
      for (const auto& per_worker : samples)
        for (const Sample& s : per_worker) {
          if (s.phase != phase) continue;
          ++checked;
          if (s.got == reference_answer(ref, s.q)) ++correct;
        }
    }

    auto percentile = [](std::vector<double>& v, size_t num, size_t den) {
      if (v.empty()) return 0.0;
      std::sort(v.begin(), v.end());
      return v[std::min(v.size() - 1, v.size() * num / den)];
    };
    const size_t total_queries =
        per_thread * static_cast<size_t>(threads) * phases;
    const double qps =
        static_cast<double>(total_queries) / (query_wall_ms / 1e3);
    const double carried_fraction =
        carried + invalidated
            ? static_cast<double>(carried) /
                  static_cast<double>(carried + invalidated)
            : 0.0;
    const auto cache_stats = server.cache()->stats();
    const ServerStats sstats = server.stats();
    dump_metrics(sinks, server, "serve_churn", family, threads, "churn");

    churn_table.add_row(family, threads, qps, carried, invalidated,
                        carried_fraction, apply_ms / opt.flaps,
                        cache_stats.hit_rate());
    json.row()
        .field("bench", "serve_churn")
        .field("family", family)
        .field("n", static_cast<uint64_t>(g.num_vertices()))
        .field("m", static_cast<uint64_t>(g.num_edges()))
        .field("threads", threads)
        .field("mode", "churn")
        .field("seed", opt.seed)
        .field("flaps", static_cast<uint64_t>(opt.flaps))
        .field("queries", static_cast<uint64_t>(total_queries))
        .field("qps", qps)
        .field("steady_p50_us", percentile(steady_lat, 1, 2))
        .field("steady_p99_us", percentile(steady_lat, 99, 100))
        .field("recovery_p50_us", percentile(recovery_lat, 1, 2))
        .field("recovery_p99_us", percentile(recovery_lat, 99, 100))
        .field("apply_ms_avg", apply_ms / opt.flaps)
        .field("repair_ms", static_cast<double>(sstats.repair_ns) / 1e6)
        .field("repaired", sstats.repaired)
        .field("recomputed", sstats.recomputed)
        .field("carried_total", static_cast<uint64_t>(carried))
        .field("invalidated_total", static_cast<uint64_t>(invalidated))
        .field("purged_stale_total", static_cast<uint64_t>(purged))
        .field("prewarmed_total", static_cast<uint64_t>(prewarmed))
        .field("carried_fraction", carried_fraction)
        .field("updates_applied", server.updates_applied())
        .field("hit_rate", cache_stats.hit_rate())
        .field("hit_rate_trajectory", trajectory)
        .field("cache_entries", static_cast<uint64_t>(cache_stats.entries))
        .field("cache_carried_forward", cache_stats.carried_forward)
        .field("cache_invalidated", cache_stats.invalidated)
        .field("cache_sum_shard_peak_bytes",
               static_cast<uint64_t>(cache_stats.sum_shard_peak_bytes))
        .field("checked", static_cast<uint64_t>(checked))
        .field("correct", static_cast<uint64_t>(correct))
        .field("hw_threads",
               static_cast<uint64_t>(std::thread::hardware_concurrency()));
  }
}

// Burst-update scenario: the SAME k edge removals applied as k single-delta
// apply_update calls versus ONE apply_updates batch, against identically
// warmed servers. The single path pays k cache walks, k epoch bumps (CSR
// rebuilds) and k repair batches where the burst pays one of each, and the
// burst repairs non-survivors incrementally from their old trees. Reported
// per (family, threads, mode) row: apply_ms for the removal burst, heal_ms
// for the re-insert burst, carried / invalidated / repaired / recomputed
// tree counts, post-update recovery latency, and sampled answers verified
// against a from-scratch rebuild of the mutated topology. The CI bench-smoke
// job asserts burst apply_ms < the k single-flap applies and that every
// sampled answer matched the rebuild.
void bench_burst(Table& burst_table, JsonRows& json, const Options& opt,
                 const ObsSinks& sinks, const std::string& family,
                 const Graph& g0) {
  const size_t k = opt.flaps;
  // Victim edges chosen once on the pristine topology so both modes apply
  // identical deltas: half edges of a hot root's tree (provably
  // invalidating), half uniform present edges, all distinct.
  std::vector<GraphDelta> removals;
  {
    const IsolationRpts pick(g0, IsolationAtw(7));
    Rng rng(hash_combine(opt.seed, 0xb045));
    const Spt hot_tree = pick.spt(0);
    const auto pool = parented_vertices(hot_tree);
    std::vector<char> taken(g0.num_edges(), 0);
    while (removals.size() < k) {
      EdgeId e;
      if (removals.size() % 2 == 0) {
        e = hot_tree.parent_edge(pool[rng.next_below(pool.size())]);
      } else {
        e = static_cast<EdgeId>(rng.next_below(g0.num_edges()));
      }
      if (taken[e] || !g0.edge_present(e)) continue;
      taken[e] = 1;
      removals.push_back(GraphDelta::remove(e));
    }
  }

  for (int threads : opt.threads) {
    const BatchSsspEngine engine(threads);
    for (const bool burst : {false, true}) {
      Graph g = g0;
      const IsolationRpts pi(g, IsolationAtw(7));
      ServerConfig cfg;
      cfg.cache.shards = opt.shards;
      cfg.cache.byte_budget = opt.budget_mb << 20;
      cfg.max_batch = opt.max_batch;
      cfg.engine = &engine;
      cfg.tracer = sinks.tracer;
      OracleServer server(pi, cfg);

      // Identical warm population for both modes: every base tree, plus a
      // spread of fault trees on the hot roots -- the resident set the
      // update walk has to adjudicate.
      for (Vertex r = 0; r < g.num_vertices(); ++r)
        server.tree({r, {}, Direction::kOut});
      for (size_t i = 0; i < opt.hot; ++i) {
        const Vertex h = static_cast<Vertex>(
            (static_cast<uint64_t>(i) * g.num_vertices()) / opt.hot);
        for (EdgeId e = 0; e < g.num_edges(); e += g.num_edges() / 8 + 1)
          server.tree({h, FaultSet{e}, Direction::kOut});
      }

      size_t carried = 0, invalidated = 0, prewarmed = 0, repaired = 0;
      auto account = [&](const UpdateResult& res) {
        carried += res.carried;
        invalidated += res.invalidated;
        prewarmed += res.prewarmed;
        repaired += res.repaired;
      };

      // The measured removal burst.
      Stopwatch apply_sw;
      if (burst) {
        account(server.apply_updates(g, removals));
      } else {
        for (const GraphDelta& d : removals)
          account(server.apply_update(g, d));
      }
      const double apply_ms = apply_sw.millis();

      // Recovery: first post-update queries, then sampled answers verified
      // against a from-scratch rebuild of the mutated topology (outside
      // the timing window).
      std::vector<double> recovery;
      std::vector<std::pair<Query, int32_t>> post_samples;
      std::vector<Vertex> hot_roots;
      for (size_t i = 0; i < opt.hot; ++i)
        hot_roots.push_back(static_cast<Vertex>(
            (static_cast<uint64_t>(i) * g.num_vertices()) / opt.hot));
      for (uint64_t seq = 0; seq < 256; ++seq) {
        const Query q = make_query(g, hot_roots, opt.seed, seq);
        Stopwatch sw;
        const int32_t got = run_query(server, q);
        recovery.push_back(sw.micros());
        if (seq % 8 == 0) post_samples.emplace_back(q, got);
      }

      // Heal with the inverse burst (tombstone resurrection), same shape
      // as the removal phase, exercising the insert-repair path.
      std::vector<GraphDelta> heals;
      for (const GraphDelta& d : removals) {
        const Edge& ed = g0.endpoints(d.edge);
        heals.push_back(GraphDelta::insert(ed.u, ed.v));
      }
      Stopwatch heal_sw;
      if (burst) {
        account(server.apply_updates(g, heals));
      } else {
        for (const GraphDelta& d : heals)
          account(server.apply_update(g, d));
      }
      const double heal_ms = heal_sw.millis();
      for (uint64_t seq = 256; seq < 384; ++seq) {
        const Query q = make_query(g, hot_roots, opt.seed, seq);
        post_samples.emplace_back(q, run_query(server, q));
      }
      // Healed topology == pristine topology: one reference serves the
      // post-heal samples; the post-removal ones get their own rebuild.
      size_t checked = 0, correct = 0;
      {
        Graph mutated = g0;
        for (const GraphDelta& d : removals) {
          GraphDelta m = d;
          mutated.apply(m);
        }
        const IsolationRpts post(mutated, IsolationAtw(7));
        const IsolationRpts healed(g, IsolationAtw(7));
        for (size_t i = 0; i < post_samples.size(); ++i) {
          const auto& [q, got] = post_samples[i];
          const IsolationRpts& ref = i < 256 / 8 ? post : healed;
          ++checked;
          if (got == reference_answer(ref, q)) ++correct;
        }
      }

      std::sort(recovery.begin(), recovery.end());
      const double rec_p50 = recovery[recovery.size() / 2];
      const double rec_p99 =
          recovery[std::min(recovery.size() - 1, recovery.size() * 99 / 100)];
      const char* mode = burst ? "burst" : "single";
      dump_metrics(sinks, server, "serve_burst", family, threads, mode);
      burst_table.add_row(family, threads, mode,
                          static_cast<uint64_t>(k), apply_ms, heal_ms,
                          carried, invalidated, repaired,
                          prewarmed - repaired);
      json.row()
          .field("bench", "serve_burst")
          .field("family", family)
          .field("n", static_cast<uint64_t>(g.num_vertices()))
          .field("m", static_cast<uint64_t>(g.num_edges()))
          .field("threads", threads)
          .field("mode", mode)
          .field("seed", opt.seed)
          .field("flaps", static_cast<uint64_t>(k))
          .field("apply_ms", apply_ms)
          .field("apply_ms_per_flap", apply_ms / static_cast<double>(k))
          .field("heal_ms", heal_ms)
          .field("carried_total", static_cast<uint64_t>(carried))
          .field("invalidated_total", static_cast<uint64_t>(invalidated))
          .field("prewarmed_total", static_cast<uint64_t>(prewarmed))
          .field("repaired_total", static_cast<uint64_t>(repaired))
          .field("recomputed_total",
                 static_cast<uint64_t>(prewarmed - repaired))
          .field("recovery_p50_us", rec_p50)
          .field("recovery_p99_us", rec_p99)
          .field("checked", static_cast<uint64_t>(checked))
          .field("correct", static_cast<uint64_t>(correct))
          .field("hw_threads",
                 static_cast<uint64_t>(std::thread::hardware_concurrency()));
    }
  }
}

// RCU scenario: steady-state query latency of the epoch-pinned lock-free
// reads under CONTINUOUS background churn. For each thread count the same
// closed-loop mixed workload is measured twice -- once against a quiet
// server, then again while a background mutator thread duty-cycles one
// hot-tree edge through apply_update (remove, pause, heal, pause). At any
// instant the topology is either the full graph or the graph minus that
// one victim edge, so every sampled churn-phase answer is verified against
// from-scratch rebuilds of BOTH topologies: matching either proves the
// query computed on one coherent generation; matching neither would mean a
// torn read across an epoch swap. The judged signal is
// p99_churn / p99_nochurn: epoch-pinned queries never block on the
// mutator, so the ratio should stay near 1. Timing asserts stay OUT of CI
// -- 1-core runners make the ratio noisy in both directions -- CI checks
// row shape and correctness only.
void bench_churn_rcu(Table& rcu_table, JsonRows& json, const Options& opt,
                     const ObsSinks& sinks, const std::string& family,
                     const Graph& g0) {
  for (int threads : opt.threads) {
    const BatchSsspEngine engine(threads);
    Graph g = g0;  // the mutable working copy this scheme serves
    const IsolationRpts pi(g, IsolationAtw(7));
    ServerConfig cfg;
    cfg.cache.shards = opt.shards;
    cfg.cache.byte_budget = opt.budget_mb << 20;
    cfg.max_batch = opt.max_batch;
    cfg.engine = &engine;
    cfg.tracer = sinks.tracer;
    OracleServer server(pi, cfg);

    std::vector<Vertex> hot_roots;
    for (size_t i = 0; i < opt.hot; ++i)
      hot_roots.push_back(static_cast<Vertex>(
          (static_cast<uint64_t>(i) * g.num_vertices()) / opt.hot));

    // Victim: a parent edge of hot root 0's current tree -- present on
    // the pristine topology and guaranteed to invalidate hot trees, so
    // every flap exercises the full publish + prewarm path, not a
    // carried-forward no-op.
    EdgeId victim;
    {
      Rng rng(hash_combine(opt.seed, 0x4cb7));
      const auto tree = server.tree({hot_roots[0], {}, Direction::kOut});
      const auto pool = parented_vertices(*tree);
      victim = tree->parent_edge(pool[rng.next_below(pool.size())]);
    }
    const Edge ends = g.endpoints(victim);

    // Queries are generated off the pristine graph: the live one mutates
    // under the mutator thread, and make_query only needs the stable
    // vertex / edge-slot counts (tombstones keep both constant).
    const size_t per_thread =
        std::max<size_t>(1, opt.queries / static_cast<size_t>(threads));
    std::vector<std::pair<Query, int32_t>> samples;
    auto measure = [&](uint64_t phase_tag, bool keep_samples) {
      std::vector<std::vector<double>> lat(threads);
      std::vector<std::vector<std::pair<Query, int32_t>>> sm(threads);
      Stopwatch wall;
      std::vector<std::thread> workers;
      workers.reserve(threads);
      for (int w = 0; w < threads; ++w) {
        workers.emplace_back([&, w, phase_tag, keep_samples] {
          lat[w].reserve(per_thread);
          for (size_t i = 0; i < per_thread; ++i) {
            const uint64_t seq =
                (phase_tag * static_cast<uint64_t>(threads) +
                 static_cast<uint64_t>(w)) *
                    per_thread +
                i;
            const Query q = make_query(g0, hot_roots, opt.seed, seq);
            Stopwatch sw;
            const int32_t got = run_query(server, q);
            lat[w].push_back(sw.micros());
            if (keep_samples && i % 64 == 0) sm[w].emplace_back(q, got);
          }
        });
      }
      for (auto& t : workers) t.join();
      Measurement m;
      m.wall_ms = wall.millis();
      std::vector<double> all;
      for (auto& l : lat) all.insert(all.end(), l.begin(), l.end());
      std::sort(all.begin(), all.end());
      m.p50_us = all[all.size() / 2];
      m.p99_us = all[std::min(all.size() - 1, all.size() * 99 / 100)];
      m.qps = static_cast<double>(all.size()) / (m.wall_ms / 1e3);
      for (auto& s : sm) samples.insert(samples.end(), s.begin(), s.end());
      return m;
    };

    // Phase 1: the quiet baseline (warms the hot trees as a side effect).
    const Measurement still = measure(0, false);

    // Phase 2: identical workload under continuous churn. Each mutator
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
    const Measurement churn = measure(1, true);
    stop.store(true, std::memory_order_relaxed);
    mutator.join();
    const uint64_t updates = server.updates_applied() - updates_before;

    // Verify every sampled churn answer against rebuilds of both
    // topologies the flap alternates between (same policy seed as the
    // served scheme, so tiebreaking is bit-identical). A sample matching
    // neither means a query mixed epochs.
    size_t checked = 0, correct = 0;
    {
      const IsolationRpts full_ref(g0, IsolationAtw(7));
      Graph removed = g0;
      GraphDelta rm = GraphDelta::remove(victim);
      removed.apply(rm);
      const IsolationRpts removed_ref(removed, IsolationAtw(7));
      for (const auto& [q, got] : samples) {
        ++checked;
        if (got == reference_answer(full_ref, q) ||
            got == reference_answer(removed_ref, q))
          ++correct;
      }
    }

    const GenerationManager::Stats gs = server.generations()->stats();
    const double ratio = still.p99_us > 0 ? churn.p99_us / still.p99_us : 0;
    const char* mode = "rcu";
    dump_metrics(sinks, server, "serve_churn_rcu", family, threads, mode);
    rcu_table.add_row(family, threads, mode, churn.qps, still.p99_us,
                      churn.p99_us, ratio, updates,
                      correct == checked ? "yes" : "NO");
    json.row()
        .field("bench", "serve_churn_rcu")
        .field("family", family)
        .field("n", static_cast<uint64_t>(g.num_vertices()))
        .field("m", static_cast<uint64_t>(g.num_edges()))
        .field("threads", threads)
        .field("mode", mode)
        .field("seed", opt.seed)
        .field("queries",
               static_cast<uint64_t>(per_thread *
                                     static_cast<size_t>(threads)))
        .field("updates", updates)
        .field("qps_nochurn", still.qps)
        .field("qps_churn", churn.qps)
        .field("p50_nochurn_us", still.p50_us)
        .field("p99_nochurn_us", still.p99_us)
        .field("p50_churn_us", churn.p50_us)
        .field("p99_churn_us", churn.p99_us)
        .field("p99_ratio", ratio)
        .field("gen_published", gs.published)
        .field("gen_retired", gs.retired)
        .field("gen_publish_waits", gs.publish_waits)
        .field("gen_live", gs.live)
        .field("checked", static_cast<uint64_t>(checked))
        .field("correct", static_cast<uint64_t>(correct))
        .field("hw_threads",
               static_cast<uint64_t>(std::thread::hardware_concurrency()));
  }
}

// Approximate-tier scenario (bench=serve_eps rows): the SAME churn-heavy
// workload -- distance-dominated query phases interleaved with a
// precomputed shortcut insert/remove flap schedule -- served once
// by an exact-tier server (default_epsilon = 0) and once by an
// approximate-tier server (default_epsilon = eps), per --epsilon value.
// Every base tree is warmed up front so each flap forces the update walk to
// adjudicate the full resident set: the exact tier invalidates and
// recomputes where the (1+eps)-slack survival test carries trees forward,
// so the judged signal is sustained qps (query wall + apply wall together)
// and the churn carried fraction. Sampled answers are verified OUTSIDE the
// timing window against a from-scratch exact rebuild of each phase's
// topology: an approximate answer is valid iff it equals the exact distance
// or lies in [d_exact, (1+eps_eff)^d_exact * d_exact] with matching
// reachability (the tier's user-facing contract; eps_eff is the quantized
// slack actually served). The CI bench-smoke job asserts (a) every sampled
// answer within the stretch bound, (b) approx-tier sustained qps >= the
// exact tier's on the identical schedule, (c) approx carried fraction >=
// the exact tier's.
void bench_epsilon(Table& eps_table, JsonRows& json, const Options& opt,
                   const ObsSinks& sinks, const std::string& family,
                   const Graph& g0) {
  std::vector<Vertex> hot_roots;
  for (size_t i = 0; i < opt.hot; ++i)
    hot_roots.push_back(static_cast<Vertex>(
        (static_cast<uint64_t>(i) * g0.num_vertices()) / opt.hot));
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
    // band is thin). The old picker probed a full SSSP per rejected try,
    // which is exactly the per-sample scan large-n drivers cannot afford.
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

  struct TierResult {
    double qps = 0;        // sustained: queries / (query wall + apply wall)
    double qps_query = 0;  // query-window-only throughput
    double p50_us = 0, p99_us = 0;
    double apply_ms = 0;
    double bytes_per_query = 0;
    double hit_rate = 0;
    uint64_t carried = 0, invalidated = 0;
    double carried_fraction = 0;
    size_t checked = 0, within_bound = 0;
    uint64_t observed_max_excess_ppm = 0;
    ServerStats sstats;
  };

  for (int threads : opt.threads) {
    const BatchSsspEngine engine(threads);
    for (double eps : opt.epsilons) {
      const uint32_t eps_q = quantize_epsilon(eps);
      const double eps_eff = dequantize_epsilon(eps_q);

      auto run_tier = [&](double tier_eps) {
        TierResult r;
        Graph g = g0;
        const IsolationRpts pi(g, IsolationAtw(7));
        ServerConfig cfg;
        cfg.cache.shards = opt.shards;
        cfg.cache.byte_budget = opt.budget_mb << 20;
        cfg.max_batch = opt.max_batch;
        cfg.engine = &engine;
        cfg.default_epsilon = tier_eps;
        cfg.tracer = sinks.tracer;
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

        const size_t phases = opt.flaps + 1;
        const size_t per_thread = std::max<size_t>(
            8, opt.queries / phases / static_cast<size_t>(threads));
        struct Sample {
          size_t phase;
          Vertex s, t;
          EdgeId e;  // kNoEdge = plain distance query
          int32_t got;
        };
        std::vector<Graph> snapshots;
        std::vector<std::vector<Sample>> samples(threads);
        std::vector<double> latencies;
        double query_wall_ms = 0;
        EdgeId pending_shortcut = kNoEdge;  // live shortcut awaiting removal

        for (size_t phase = 0; phase < phases; ++phase) {
          snapshots.push_back(g);
          std::vector<std::vector<double>> lat(threads);
          Stopwatch wall;
          std::vector<std::thread> workers;
          workers.reserve(threads);
          for (int w = 0; w < threads; ++w) {
            workers.emplace_back([&, w, phase] {
              for (size_t i = 0; i < per_thread; ++i) {
                const uint64_t seq =
                    (static_cast<uint64_t>(phase) * threads + w) * per_thread +
                    i;
                const uint64_t h =
                    hash_combine(hash_combine(0xe950, opt.seed), seq);
                const Vertex s = hot_roots[h % hot_roots.size()];
                const Vertex t = static_cast<Vertex>(
                    hash_combine(h, 1) % g.num_vertices());
                const bool faulted = hash_combine(h, 2) % 5 == 0;
                const EdgeId e =
                    faulted ? fault_pool[hash_combine(h, 3) % 4] : kNoEdge;
                Stopwatch sw;
                const int32_t got = faulted
                                        ? server.distance(s, t, FaultSet{e})
                                        : server.distance(s, t);
                lat[w].push_back(sw.micros());
                if (i % 32 == 0) samples[w].push_back({phase, s, t, e, got});
              }
            });
          }
          for (auto& t : workers) t.join();
          query_wall_ms += wall.millis();
          for (auto& l : lat)
            latencies.insert(latencies.end(), l.begin(), l.end());

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

        // Stretch verification, outside the timing window, against an exact
        // from-scratch rebuild of each phase's topology.
        for (size_t phase = 0; phase < phases; ++phase) {
          const IsolationRpts ref(snapshots[phase], IsolationAtw(7));
          for (const auto& per_worker : samples)
            for (const Sample& s : per_worker) {
              if (s.phase != phase) continue;
              const int32_t exact =
                  s.e == kNoEdge ? ref.distance(s.s, s.t)
                                 : ref.distance(s.s, s.t, FaultSet{s.e});
              ++r.checked;
              if (s.got == exact) {
                ++r.within_bound;
              } else if (exact != kUnreachable && s.got != kUnreachable &&
                         s.got >= exact &&
                         static_cast<double>(s.got) <=
                             std::pow(1.0 + eps_eff, exact) *
                                     static_cast<double>(exact) +
                                 1e-9) {
                ++r.within_bound;
                const uint64_t ppm = static_cast<uint64_t>(
                    (static_cast<double>(s.got - exact) * 1e6) /
                    static_cast<double>(exact));
                r.observed_max_excess_ppm =
                    std::max(r.observed_max_excess_ppm, ppm);
              }
            }
        }

        std::sort(latencies.begin(), latencies.end());
        if (!latencies.empty()) {
          r.p50_us = latencies[latencies.size() / 2];
          r.p99_us = latencies[std::min(latencies.size() - 1,
                                        latencies.size() * 99 / 100)];
        }
        const double total_queries = static_cast<double>(latencies.size());
        r.qps_query = total_queries / (query_wall_ms / 1e3);
        r.qps = total_queries / ((query_wall_ms + r.apply_ms) / 1e3);
        r.carried_fraction =
            r.carried + r.invalidated
                ? static_cast<double>(r.carried) /
                      static_cast<double>(r.carried + r.invalidated)
                : 0.0;
        r.bytes_per_query =
            static_cast<double>(server.bytes_materialized() - warm_bytes) /
            std::max(1.0, static_cast<double>(server.queries_served() -
                                              warm_queries));
        r.hit_rate = server.cache()->stats().hit_rate();
        r.sstats = server.stats();
        dump_metrics(sinks, server, "serve_eps", family, threads,
                     tier_eps > 0 ? "approx" : "exact");
        return r;
      };

      const TierResult exact = run_tier(0.0);
      const TierResult approx = run_tier(eps);

      for (const bool is_approx : {false, true}) {
        const TierResult& r = is_approx ? approx : exact;
        const char* mode = is_approx ? "approx" : "exact";
        eps_table.add_row(family, threads, eps, mode, r.qps,
                          r.carried_fraction, r.hit_rate,
                          static_cast<double>(r.observed_max_excess_ppm) / 1e6,
                          r.within_bound == r.checked ? "yes" : "NO");
        json.row()
            .field("bench", "serve_eps")
            .field("family", family)
            .field("n", static_cast<uint64_t>(g0.num_vertices()))
            .field("m", static_cast<uint64_t>(g0.num_edges()))
            .field("threads", threads)
            .field("mode", mode)
            .field("metrics", metrics_build())
            .field("seed", opt.seed)
            .field("flaps", static_cast<uint64_t>(opt.flaps))
            .field("epsilon", eps)
            .field("eps_q", static_cast<uint64_t>(is_approx ? eps_q : 0))
            .field("eps_effective", is_approx ? eps_eff : 0.0)
            .field("qps", r.qps)
            .field("qps_query", r.qps_query)
            .field("p50_us", r.p50_us)
            .field("p99_us", r.p99_us)
            .field("gen_ms", gen_ms)
            .field("apply_ms", r.apply_ms)
            .field("hit_rate", r.hit_rate)
            .field("bytes_per_query", r.bytes_per_query)
            .field("carried_total", r.carried)
            .field("invalidated_total", r.invalidated)
            .field("carried_fraction", r.carried_fraction)
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
            .field("checked", static_cast<uint64_t>(r.checked))
            // "correct" for this scenario means within the tier's contract:
            // exact rows must match the rebuild bit-for-bit, approx rows
            // must land in [d_exact, (1+eps_eff)^d_exact * d_exact].
            .field("correct", static_cast<uint64_t>(r.within_bound))
            .field("within_bound", static_cast<uint64_t>(r.within_bound))
            .field("observed_max_excess_ppm", r.observed_max_excess_ppm)
            .field("hw_threads",
                   static_cast<uint64_t>(std::thread::hardware_concurrency()));
      }
    }
  }
}

// Large-graph scenario (bench=serve_large rows): the memory-capacity
// economics of production-scale graphs. The subject is either --graph-file
// or a generated sparse_connected(large_n) road-like graph, taken through
// the full restart path -- freeze -> write -> mmap-load -> thaw -- so every
// run reports what a cold start actually costs (gen_ms for the driver's own
// graph acquisition, pack_ms to freeze, load_ms to map; mmap records whether
// the zero-parse path was live). Queries draw hot roots from a skewed
// (min-of-four uniforms) distribution over a root set sized ~2x what the
// budget would hold in fat form, so the cache budget -- not compute -- is
// the binding constraint, exactly the regime compact trees exist for. Two
// modes per thread count, both serving the published (compact) form:
// `compact` on the in-memory graph, `compact_mmap` on the mmap-thawed
// graph. Every sampled answer is checked against one from-scratch reference
// tree per hot root; after the query window a short flap phase (remove a
// hot parent edge, heal it) exercises repair-vs-recompute at scale. CI
// asserts bytes_per_tree <= 0.6x fat_bytes_per_tree (the fat probe), more
// than hot_roots / 2 trees resident at the fixed budget (the budget holds
// exactly that many fat trees), and samples_match == samples. Thread
// accounting: --threads T is the total footprint, split by split_threads
// into drivers + engine workers.
void bench_large(Table& large_table, JsonRows& json, const Options& opt,
                 const ObsSinks& sinks) {
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
  Graph mapped;
  bool have_mapped = false;
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
      have_mapped = true;
    }
  }
  if (!input_frozen) std::remove(frozen_path.c_str());
  if (!have_mapped) mapped = mem;  // degraded: still measures, mmap=0

  const IsolationRpts ref(mem, IsolationAtw(7));
  const size_t hot = 32;
  std::vector<Vertex> hot_roots;
  for (size_t i = 0; i < hot; ++i)
    hot_roots.push_back(static_cast<Vertex>(
        (static_cast<uint64_t>(i) * mem.num_vertices()) / hot));
  // Budget: half the hot set's FAT trees, so the published compact form
  // (~6 vs 12 bytes/vertex) holds roughly the whole set where fat trees
  // would thrash. probe_bytes is also every row's fat_bytes_per_tree.
  const size_t probe_bytes = ref.spt(hot_roots[0]).memory_bytes();
  const size_t budget = (hot / 2) * (probe_bytes + 256);
  // Query volume scaled so miss-driven recomputes stay bounded as n grows
  // (each miss is a full SSSP); the row records the actual count.
  const size_t lq = std::max<size_t>(
      240, std::min(opt.queries,
                    size_t{200000000} / std::max<size_t>(1, mem.num_vertices())));
  const size_t large_flaps = 2;

  struct LargeRun {
    int threads = 0;
    ThreadSplit ts{};
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
    // --threads is the TOTAL footprint: drivers + engine workers (see
    // split_threads). The row's `threads` field keeps the total budget;
    // driver_threads / engine_threads record the split that actually ran.
    const ThreadSplit ts = split_threads(threads);
    const BatchSsspEngine engine(ts.engine);
    auto run_mode = [&](const Graph& base, const char* mode) {
      LargeRun r;
      r.threads = threads;
      r.ts = ts;
      r.mode = mode;
      Graph g = base;  // private copy: the flap phase mutates it
      const IsolationRpts pi(g, IsolationAtw(7));
      ServerConfig cfg;
      cfg.cache.shards = 1;  // exact LRU counts: entries compare across modes
      cfg.cache.byte_budget = budget;
      cfg.max_batch = opt.max_batch;
      cfg.engine = &engine;
      cfg.tracer = sinks.tracer;
      OracleServer server(pi, cfg);
      const size_t per_thread =
          std::max<size_t>(1, lq / static_cast<size_t>(ts.drivers));
      std::vector<std::vector<double>> lat(ts.drivers);
      std::vector<std::vector<std::pair<Query, int32_t>>> sm(ts.drivers);
      Stopwatch wall;
      std::vector<std::thread> workers;
      workers.reserve(ts.drivers);
      for (int w = 0; w < ts.drivers; ++w) {
        workers.emplace_back([&, w] {
          lat[w].reserve(per_thread);
          for (size_t i = 0; i < per_thread; ++i) {
            const uint64_t seq = static_cast<uint64_t>(w) * per_thread + i;
            const uint64_t h =
                hash_combine(hash_combine(0x1a49e, opt.seed), seq);
            Query q;
            // Skewed root draw: min of four uniforms keeps the head of the
            // hot set resident under LRU while the tail still gets touched.
            uint64_t idx = h % hot;
            idx = std::min(idx, hash_combine(h, 4) % hot);
            idx = std::min(idx, hash_combine(h, 5) % hot);
            idx = std::min(idx, hash_combine(h, 6) % hot);
            q.s = hot_roots[idx];
            q.t = static_cast<Vertex>(hash_combine(h, 1) % g.num_vertices());
            q.e = 0;
            q.kind =
                hash_combine(h, 3) % 10 < 8 ? Query::kDistance : Query::kPath;
            Stopwatch sw;
            const int32_t got = run_query(server, q);
            lat[w].push_back(sw.micros());
            if (i % 16 == 0) sm[w].emplace_back(q, got);
          }
        });
      }
      for (auto& t : workers) t.join();
      r.m.wall_ms = wall.millis();
      for (auto& s : sm)
        r.samples.insert(r.samples.end(), s.begin(), s.end());

      // Repair-vs-recompute at scale: flap a hot parent edge and heal it,
      // letting the update walk adjudicate the full resident set.
      {
        const auto tree = server.tree({hot_roots[0], {}, Direction::kOut});
        const auto pool = parented_vertices(*tree);
        Rng rng(hash_combine(opt.seed, 0x1a46e));
        Stopwatch sw;
        for (size_t f = 0; f < large_flaps; ++f) {
          const EdgeId e = tree->parent_edge(pool[rng.next_below(pool.size())]);
          const Edge ends = g.endpoints(e);
          server.apply_update(g, GraphDelta::remove(e));
          server.apply_update(g, GraphDelta::insert(ends.u, ends.v));
        }
        r.apply_ms = sw.millis();
      }

      std::vector<double> all;
      for (auto& l : lat) all.insert(all.end(), l.begin(), l.end());
      std::sort(all.begin(), all.end());
      if (!all.empty()) {
        r.m.p50_us = all[all.size() / 2];
        r.m.p99_us = all[std::min(all.size() - 1, all.size() * 99 / 100)];
      }
      r.m.qps = static_cast<double>(all.size()) / (r.m.wall_ms / 1e3);
      r.cstats = server.cache()->stats();
      r.sstats = server.stats();
      dump_metrics(sinks, server, "serve_large", family, threads, mode);
      return r;
    };

    runs.push_back(run_mode(mem, "compact"));
    runs.push_back(run_mode(mapped, "compact_mmap"));
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
    // Independent spot check through the scheme's own query API.
    size_t checked = 0, correct = 0;
    for (size_t i = 0; i < r.samples.size(); i += 8) {
      ++checked;
      if (r.samples[i].second == reference_answer(ref, r.samples[i].first))
        ++correct;
    }
    const double bytes_per_tree =
        static_cast<double>(r.cstats.bytes) /
        static_cast<double>(std::max<size_t>(1, r.cstats.entries));
    large_table.add_row(family, mem.num_vertices(), r.threads, r.mode, r.m.qps,
                        r.cstats.hit_rate(),
                        static_cast<uint64_t>(r.cstats.entries), bytes_per_tree,
                        load_ms, mmapped ? "yes" : "no");
    json.row()
        .field("bench", "serve_large")
        .field("family", family)
        .field("n", static_cast<uint64_t>(mem.num_vertices()))
        .field("m", static_cast<uint64_t>(mem.num_edges()))
        .field("threads", r.threads)
        .field("driver_threads", r.ts.drivers)
        .field("engine_threads", r.ts.engine)
        .field("mode", r.mode)
        .field("metrics", metrics_build())
        .field("seed", opt.seed)
        .field("queries", static_cast<uint64_t>(lq))
        .field("hot_roots", static_cast<uint64_t>(hot))
        .field("budget_bytes", static_cast<uint64_t>(budget))
        .field("gen_ms", gen_ms)
        .field("pack_ms", pack_ms)
        .field("load_ms", load_ms)
        .field("file_bytes", file_bytes)
        .field("mmap", static_cast<uint64_t>(mmapped ? 1 : 0))
        .field("qps", r.m.qps)
        .field("p50_us", r.m.p50_us)
        .field("p99_us", r.m.p99_us)
        .field("hit_rate", r.cstats.hit_rate())
        .field("trees_resident", static_cast<uint64_t>(r.cstats.entries))
        .field("cache_bytes", static_cast<uint64_t>(r.cstats.bytes))
        .field("bytes_per_tree", bytes_per_tree)
        .field("fat_bytes_per_tree", static_cast<uint64_t>(probe_bytes))
        .field("evictions", r.cstats.evictions)
        .field("flaps", static_cast<uint64_t>(large_flaps))
        .field("apply_ms", r.apply_ms)
        .field("repair_ms", static_cast<double>(r.sstats.repair_ns) / 1e6)
        .field("repaired", r.sstats.repaired)
        .field("recomputed", r.sstats.recomputed)
        .field("samples", static_cast<uint64_t>(r.samples.size()))
        .field("samples_match", r.samples_match)
        .field("checked", static_cast<uint64_t>(checked))
        .field("correct", static_cast<uint64_t>(correct))
        .field("hw_threads",
               static_cast<uint64_t>(std::thread::hardware_concurrency()));
  }
}

// Sharded-serving scenario (bench=serve_sharded rows): the three-layer
// stack -- ShardRouter (consistent hashing on (scheme_id, root)), the
// group-by-shard front-end (one serve_batch per touched shard), and the
// OracleShard fleet -- swept over shards {1, 2, 4} with the global cache
// budget split evenly across shards. The workload is cross-shard-heavy by
// construction: 6/8 of queries are tree_batch fan-outs over kShardFanout
// roots drawn uniformly from the whole vertex set (at 4 shards nearly every
// query touches every shard), 1/8 point distances and 1/8 replacement
// distances off the hot set. A naive front-end would issue one submission
// per routed sub-query; the rows record how far below that the
// group-by-shard rule runs.
//
// Judged signals, asserted by CI on the --small artifact:
//   (a) the deterministic sample stream is bit-identical across ALL three
//       configs at a thread count (reference: shards=1) -- sharding
//       repartitions work, it never changes answers;
//   (b) the front-end batches below one submission per routed sub-query
//       and at most half of them (>= 2x fewer than one per sub-query);
//   (c) a churn phase flaps a hot tree edge through the front-end's
//       epoch-coherent fan-out, and every sampled answer of every phase
//       matches a from-scratch rebuild of that phase's topology.
// Thread accounting: --threads T is the total footprint, split by
// split_threads into closed-loop drivers + a shared engine.
constexpr size_t kShardFanout = 16;  // roots per tree_batch fan-out query

void bench_sharded(Table& sharded_table, JsonRows& json, const Options& opt,
                   const ObsSinks& sinks, const std::string& family,
                   const Graph& g0) {
  struct SQuery {
    enum Kind { kFanoutQ, kDistanceQ, kReplacementQ } kind;
    std::array<Vertex, kShardFanout> roots;
    Vertex s, t;
    EdgeId e;
  };
  struct Sample {
    uint64_t phase, seq, digest;
  };

  std::vector<Vertex> hot_roots;
  for (size_t i = 0; i < opt.hot; ++i)
    hot_roots.push_back(static_cast<Vertex>(
        (static_cast<uint64_t>(i) * g0.num_vertices()) / opt.hot));

  auto make_squery = [&](uint64_t seq) {
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
  EdgeId victim;
  {
    const auto vtree = full_ref.spt(hot_roots[0]);
    const auto pool = parented_vertices(vtree);
    Rng rng(hash_combine(opt.seed, 0x54a2d));
    victim = vtree.parent_edge(pool[rng.next_below(pool.size())]);
  }
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
    // sequential, per-worker vectors merged in worker order), so positional
    // comparison is exact.
    std::vector<uint64_t> ref_digests;
    for (const size_t shards_n : {size_t{1}, size_t{2}, size_t{4}}) {
      Graph g = g0;  // private copy: the churn phases mutate it
      const IsolationRpts pi(g, IsolationAtw(7));
      FrontEndConfig fc;
      fc.num_shards = shards_n;
      fc.shard.cache.shards = opt.shards;
      fc.shard.cache.byte_budget = (opt.budget_mb << 20) / shards_n;
      fc.shard.max_batch = opt.max_batch;
      fc.shard.engine = &engine;
      fc.tracer = sinks.tracer;
      ShardAggregator fe(pi, fc);

      std::vector<Sample> samples;
      std::vector<double> steady_lat;
      double steady_wall_ms = 0;
      auto run_phase = [&](uint64_t phase_tag, size_t nq, bool steady) {
        const size_t per_thread =
            std::max<size_t>(1, nq / static_cast<size_t>(ts.drivers));
        std::vector<std::vector<double>> lat(ts.drivers);
        std::vector<std::vector<Sample>> sm(ts.drivers);
        Stopwatch wall;
        std::vector<std::thread> workers;
        workers.reserve(ts.drivers);
        for (int w = 0; w < ts.drivers; ++w) {
          workers.emplace_back([&, w, phase_tag, per_thread] {
            lat[w].reserve(per_thread);
            for (size_t i = 0; i < per_thread; ++i) {
              const uint64_t seq =
                  (phase_tag * static_cast<uint64_t>(ts.drivers) +
                   static_cast<uint64_t>(w)) *
                      per_thread +
                  i;
              const SQuery q = make_squery(seq);
              Stopwatch sw;
              const uint64_t got = run_squery(fe, q);
              lat[w].push_back(sw.micros());
              if (i % 4 == 0) sm[w].push_back({phase_tag, seq, got});
            }
          });
        }
        for (auto& t : workers) t.join();
        const double wall_ms = wall.millis();
        for (auto& s : sm) samples.insert(samples.end(), s.begin(), s.end());
        if (steady) {
          steady_wall_ms = wall_ms;
          for (auto& l : lat)
            steady_lat.insert(steady_lat.end(), l.begin(), l.end());
        }
      };

      // Phase 0: steady state on the pristine topology (the timed
      // window). Then sflaps churn phases, each after one edge flap
      // applied through the epoch-coherent fan-out.
      run_phase(0, sq, true);
      uint64_t carried = 0, invalidated = 0, prewarmed = 0, repaired = 0;
      for (size_t f = 0; f < sflaps; ++f) {
        const UpdateResult ur =
            f % 2 == 0 ? fe.apply_update(g, GraphDelta::remove(victim))
                       : fe.apply_update(g, GraphDelta::insert(ends.u,
                                                               ends.v));
        carried += ur.carried;
        invalidated += ur.invalidated;
        prewarmed += ur.prewarmed;
        repaired += ur.repaired;
        run_phase(f + 1, cq, false);
      }

      // Audits, outside every timing window. Phase p odd = victim
      // removed, even = healed back to pristine.
      size_t checked = 0, correct = 0;
      for (const Sample& s : samples) {
        ++checked;
        const IRpts& ref = s.phase % 2 == 1 ? removed_ref : full_ref;
        if (s.digest == ref_squery(ref, make_squery(s.seq))) ++correct;
      }
      uint64_t match = 0;
      if (ref_digests.empty()) {
        for (const Sample& s : samples) ref_digests.push_back(s.digest);
        match = samples.size();
      } else if (ref_digests.size() == samples.size()) {
        for (size_t i = 0; i < samples.size(); ++i)
          if (samples[i].digest == ref_digests[i]) ++match;
      }

      const FrontEndStats fs = fe.stats();
      Measurement m;
      m.wall_ms = steady_wall_ms;
      std::sort(steady_lat.begin(), steady_lat.end());
      m.p50_us = steady_lat[steady_lat.size() / 2];
      m.p99_us = steady_lat[std::min(steady_lat.size() - 1,
                                     steady_lat.size() * 99 / 100)];
      m.qps = static_cast<double>(steady_lat.size()) / (m.wall_ms / 1e3);
      const double subs_per_subq =
          fs.subqueries > 0
              ? static_cast<double>(fs.submissions) /
                    static_cast<double>(fs.subqueries)
              : 0;
      const std::string mode = "shards" + std::to_string(shards_n);
      dump_registry(sinks, fe.metrics(), "serve_sharded", family, threads,
                    mode);
      sharded_table.add_row(
          family, threads, static_cast<uint64_t>(shards_n), m.qps, fs.subqueries, fs.submissions,
          subs_per_subq, fs.remote_hits,
          match == samples.size() && correct == checked ? "yes" : "NO");
      json.row()
          .field("bench", "serve_sharded")
          .field("family", family)
          .field("n", static_cast<uint64_t>(g0.num_vertices()))
          .field("m", static_cast<uint64_t>(g0.num_edges()))
          .field("threads", threads)
          .field("driver_threads", ts.drivers)
          .field("engine_threads", ts.engine)
          .field("shards", static_cast<uint64_t>(shards_n))
          .field("mode", mode)
          .field("metrics", metrics_build())
          .field("seed", opt.seed)
          .field("fanout_k", static_cast<uint64_t>(kShardFanout))
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
          .field("flaps", static_cast<uint64_t>(sflaps))
          .field("carried", carried)
          .field("invalidated", invalidated)
          .field("prewarmed", prewarmed)
          .field("repaired", repaired)
          .field("samples", static_cast<uint64_t>(samples.size()))
          .field("samples_match", match)
          .field("checked", static_cast<uint64_t>(checked))
          .field("correct", static_cast<uint64_t>(correct))
          .field("hw_threads",
                 static_cast<uint64_t>(std::thread::hardware_concurrency()));
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
  Table sharded_table({"family", "threads", "shards", "qps",
                       "subqueries", "submissions", "subs_per_subq",
                       "remote_hits", "answers_ok"});
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
  ObsSinks sinks;
  if (!opt.metrics_path.empty()) sinks.metrics = &metrics_json;
  if (tracer) sinks.tracer = &*tracer;

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
      bench_family(table, json, opt, sinks, family, file_graph);
    } else {
      std::cout << "--graph-file n=" << file_graph.num_vertices()
                << " skips the per-fetch-recompute baseline; see the "
                   "serve_large rows.\n";
    }
  } else {
    bench_family(table, json, opt, sinks, "gnp(400)", g400);
    if (!opt.small) {
      bench_family(table, json, opt, sinks, "gnp(2000)",
                   gnp_connected(2000, 8.0 / 2000, 1236));
      bench_family(table, json, opt, sinks, "cliquechain(20,20)",
                   clique_chain(20, 20));
    }
  }
  bench_fault_scan(scan_table, json, opt, sinks, "gnp(400)", g400);
  bench_churn(churn_table, json, opt, sinks, "gnp(400)", g400);
  bench_burst(burst_table, json, opt, sinks, "gnp(400)", g400);
  bench_churn_rcu(rcu_table, json, opt, sinks, "gnp(400)", g400);
  bench_epsilon(eps_table, json, opt, sinks, "gnp(400)", g400);
  bench_sharded(sharded_table, json, opt, sinks, "gnp(400)", g400);
  bench_large(large_table, json, opt, sinks);

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
               "incremental-repair engine batch for the whole burst):\n";
  burst_table.print();
  std::cout << "\nEpoch-pinned (RCU) scenario: the same workload quiet vs "
               "under a background mutator flapping one hot edge;\nmode rcu "
               "= lock-free epoch-pinned reads. p99_ratio = p99_churn / "
               "p99_quiet;\n"
               "answers_ok = every sampled churn answer matched a rebuild "
               "of one of the two live topologies:\n";
  rcu_table.print();
  std::cout << "\nApproximate-tier scenario: the same churn-heavy schedule "
               "served exact (epsilon 0) vs approximate (--epsilon);\n"
               "qps_sustained bills query AND update walls, max_excess = "
               "worst sampled (approx - exact) / exact,\nin_bound = every "
               "sampled answer within the (1+eps)^d * d stretch contract:\n";
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
