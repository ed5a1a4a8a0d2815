// The three serving workloads (hot_read, cold_read, churn) and the probes of
// the serving layers: oracle_shard, generation, spt_cache,
// coalescing_batcher, shard_router and shard_aggregator.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <thread>

#include "graph/frozen_csr.h"
#include "graph/generators.h"
#include "serve/oracle_server.h"
#include "serve/shard_aggregator.h"
#include "workloads.h"

namespace perfbench {

using namespace restorable;

namespace {

enum Kind : uint8_t {
  kDist,
  kFaultDist,
  kRepl,
  kPath,
  kBatch,
  kBatchEps,
  kNumKinds
};

struct Query {
  Kind kind = kDist;
  Vertex s = 0;
  Vertex t = 0;
  EdgeId e = kNoEdge;
  FaultSet faults;  // {e} for fault-distance queries
  uint32_t batch = 0;  // first root index of a tree_batch
};

// One served answer kept for the post-window check.
struct Sample {
  Query q;
  int32_t ans = 0;
  Path path;
  std::vector<SptHandle> trees;  // tree_batch answers
  uint64_t epoch = 0;            // epoch the answer was served at
};

// Samples are kept every `stride` operations; when the buffer fills, every
// other sample is dropped and the stride doubles, so the kept samples
// spread evenly over the whole window whatever the throughput.
struct ClientState {
  uint64_t kinds[kNumKinds] = {};
  uint64_t stride = 1;
  std::vector<Sample> samples;

  bool wants(uint64_t seq) const { return seq % stride == 0; }
  void keep(Sample s) {
    samples.push_back(std::move(s));
    if (samples.size() < kMaxSamples) return;
    for (size_t i = 1; 2 * i < samples.size(); ++i)
      samples[i] = std::move(samples[2 * i]);
    samples.resize((samples.size() + 1) / 2);
    stride *= 2;
  }
  static constexpr size_t kMaxSamples = 256;
};
constexpr size_t kBatchRoots = 8;
// Query pool sizes are primes, so the power-of-two sampling strides of
// ClientState still visit every pool entry.
constexpr size_t kPool = 65521;
constexpr size_t kTinyPool = 4093;
const uint32_t kEpsQ = quantize_epsilon(0.25);

// Hot roots and, per root, fault edges drawn from its base tree.
struct HotSet {
  std::vector<Vertex> roots;
  std::vector<std::vector<EdgeId>> faults;
};

std::vector<Vertex> distinct_vertices(Vertex n, size_t k, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vertex> out;
  std::vector<char> used(n, 0);
  while (out.size() < std::min<size_t>(k, n)) {
    const Vertex v = static_cast<Vertex>(rng.next_below(n));
    if (used[v]) continue;
    used[v] = 1;
    out.push_back(v);
  }
  return out;
}

std::vector<EdgeId> tree_edges_sample(const Spt& tree, size_t k, uint64_t seed) {
  Rng rng(seed);
  std::vector<EdgeId> out;
  const Vertex n = tree.num_vertices();
  for (size_t tries = 0; out.size() < k && tries < 64 * k; ++tries) {
    const Vertex v = static_cast<Vertex>(rng.next_below(n));
    const EdgeId e = tree.parent_edge(v);
    if (e == kNoEdge || std::find(out.begin(), out.end(), e) != out.end())
      continue;
    out.push_back(e);
  }
  return out;
}

// Query pool: `pct` gives the share (percent) of each kind.
std::vector<Query> make_pool(size_t size, uint64_t seed, const HotSet& hot,
                             Vertex n, const std::vector<int>& pct) {
  Rng rng(seed);
  std::vector<Query> pool(size);
  for (Query& q : pool) {
    int u = static_cast<int>(rng.next_below(100));
    int k = 0;
    while (k + 1 < static_cast<int>(pct.size()) && u >= pct[k]) u -= pct[k++];
    q.kind = static_cast<Kind>(k);
    const size_t ri = rng.next_below(hot.roots.size());
    q.s = hot.roots[ri];
    q.t = static_cast<Vertex>(rng.next_below(n));
    const auto& fs = hot.faults[ri];
    q.e = fs.empty() ? kNoEdge : fs[rng.next_below(fs.size())];
    if (q.kind == kFaultDist && q.e != kNoEdge) q.faults = FaultSet{q.e};
    if (q.kind == kRepl && q.e == kNoEdge) q.kind = kDist;
    q.batch = static_cast<uint32_t>(rng.next_below(hot.roots.size()));
  }
  return pool;
}

std::vector<SsspRequest> batch_requests(const HotSet& hot, uint32_t first,
                                        uint32_t eps_q) {
  std::vector<SsspRequest> reqs;
  for (size_t i = 0; i < kBatchRoots && i < hot.roots.size(); ++i)
    reqs.push_back({hot.roots[(first + i) % hot.roots.size()], {},
                    Direction::kOut, eps_q});
  return reqs;
}

template <typename Front>
struct SpanNames;
template <>
struct SpanNames<OracleServer> {
  static constexpr const char* names[kNumKinds] = {
      "oracle_shard.distance", "oracle_shard.distance_fault",
      "oracle_shard.replacement_distance", "oracle_shard.path", "", ""};
};
template <>
struct SpanNames<ShardAggregator> {
  static constexpr const char* names[kNumKinds] = {
      "shard_aggregator.distance", "shard_aggregator.distance_fault",
      "shard_aggregator.replacement_distance", "shard_aggregator.path",
      "shard_aggregator.tree_batch", "shard_aggregator.tree_batch_eps"};
};

uint64_t routed_epoch(OracleServer&) { return 0; }
uint64_t routed_epoch(ShardAggregator& a) { return a.routed_epoch(); }

// One closed-loop operation against a serving front-end.
template <typename Front>
void serve_op(Front& front, const HotSet& hot, const std::vector<Query>& pool,
              std::vector<ClientState>& states, ClientCtx& ctx) {
  const Query& q =
      pool[(ctx.seq + ctx.client * (pool.size() / 2 + 1)) % pool.size()];
  ClientState& st = states[ctx.client];
  ++st.kinds[q.kind];
  const bool keep = st.wants(ctx.seq);
  const uint64_t e0 = keep ? routed_epoch(front) : 0;
  Sample s;
  {
    SpanScope span(ctx.spans, ctx.client, ctx.trace_id(), 0, -1,
                   SpanNames<Front>::names[q.kind]);
    switch (q.kind) {
      case kDist:
        s.ans = front.distance(q.s, q.t);
        break;
      case kFaultDist:
        s.ans = front.distance(q.s, q.t, q.faults);
        break;
      case kRepl:
        s.ans = front.replacement_distance(q.s, q.t, q.e);
        break;
      case kPath:
        s.path = front.path(q.s, q.t);
        s.ans = static_cast<int32_t>(s.path.length());
        break;
      case kBatch:
      case kBatchEps:
        if constexpr (std::is_same_v<Front, ShardAggregator>) {
          const auto reqs =
              batch_requests(hot, q.batch, q.kind == kBatchEps ? kEpsQ : 0);
          s.trees = front.tree_batch(reqs);
          if (s.trees.size() != reqs.size() || !s.trees.back())
            throw std::runtime_error("tree_batch: short answer");
          s.trees.resize(2);  // the check compares the first two trees
        }
        break;
      default:
        break;
    }
  }
  if (!keep) return;
  s.epoch = routed_epoch(front);
  if (s.epoch != e0) return;  // served across a fan-out: epoch unknown
  s.q = q;
  st.keep(std::move(s));
}

std::vector<Sample> gather(std::vector<ClientState>& states,
                           uint64_t kinds[kNumKinds]) {
  std::vector<Sample> all;
  for (auto& st : states) {
    for (int k = 0; k < kNumKinds; ++k) kinds[k] += st.kinds[k];
    for (auto& s : st.samples) all.push_back(std::move(s));
  }
  return all;
}

// ---- Correctness -------------------------------------------------------------

// Checks exact trees bit-identical and epsilon trees within (1+eps)^d.
bool tree_matches(const Spt& got, const Spt& ref, uint32_t eps_q) {
  if (got.num_vertices() != ref.num_vertices()) return false;
  const double eps = dequantize_epsilon(eps_q);
  for (Vertex v = 0; v < ref.num_vertices(); ++v) {
    const int32_t d = ref.hops(v), a = got.hops(v);
    if (eps_q == 0) {
      if (a != d || got.parent_edge(v) != ref.parent_edge(v)) return false;
      continue;
    }
    if ((d == kUnreachable) != (a == kUnreachable)) return false;
    if (d == kUnreachable) continue;
    if (a < d || static_cast<double>(a) >
                     std::pow(1.0 + eps, d) * static_cast<double>(d) + 1e-9)
      return false;
  }
  return true;
}

// Compares every sample served at one topology against a scheme rebuilt
// from scratch on `ref_graph`. At most `max_trees` distinct reference trees
// are computed; samples needing more are skipped (and not counted).
void check_samples(const Graph& ref_graph, uint64_t sseed,
                   const std::vector<const Sample*>& samples, const HotSet& hot,
                   size_t max_trees, Result& r, size_t& checked) {
  const auto ref = make_default_rpts(ref_graph, sseed);
  std::map<std::pair<Vertex, std::pair<EdgeId, uint32_t>>, Spt> trees;
  auto tree_for = [&](Vertex s, EdgeId e, uint32_t eps_q) -> const Spt* {
    const auto key = std::make_pair(s, std::make_pair(e, eps_q));
    auto it = trees.find(key);
    if (it != trees.end()) return &it->second;
    if (trees.size() >= max_trees) return nullptr;
    FaultSet f = e == kNoEdge ? FaultSet{} : FaultSet{e};
    // Exact references come from the scheme directly; epsilon answers are
    // bounded against the exact tree.
    return &trees.emplace(key, ref->spt(s, f)).first->second;
  };
  for (const Sample* sp : samples) {
    const Sample& s = *sp;
    const Query& q = s.q;
    bool ok = true, skipped = false;
    switch (q.kind) {
      case kDist:
      case kFaultDist:
      case kPath:
      case kRepl: {
        const EdgeId e = q.kind == kFaultDist || q.kind == kRepl ? q.e : kNoEdge;
        const Spt* t = tree_for(q.s, e, 0);
        skipped = !t;
        if (t) ok = q.kind == kPath ? s.path == t->path_to(q.t) : s.ans == t->hops(q.t);
        break;
      }
      default: {
        const auto reqs =
            batch_requests(hot, q.batch, q.kind == kBatchEps ? kEpsQ : 0);
        for (size_t i = 0; i < s.trees.size() && ok && !skipped; ++i) {
          const Spt* t = tree_for(reqs[i].root, kNoEdge, 0);
          skipped = !t;
          if (t) ok = tree_matches(*s.trees[i], *t, reqs[i].eps_q);
        }
        break;
      }
    }
    if (skipped) continue;
    ++checked;
    if (!ok) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "answer mismatch: kind=%d s=%u t=%u e=%u epoch=%llu", q.kind,
                    q.s, q.t, q.e, static_cast<unsigned long long>(s.epoch));
      r.fail_check(buf);
      return;
    }
  }
}

// ---- Serving-layer metrics ------------------------------------------------------

struct WindowCounts {
  uint64_t kinds[kNumKinds] = {};
  uint64_t queries() const {
    uint64_t n = 0;
    for (uint64_t k : kinds) n += k;
    return n;
  }
};

void put_e2e(const Window& w, Result& r) {
  const auto lat = w.untraced.sample();
  r.put("qps", w.untraced.qps(), "queries/s");
  r.put("query_p50_us", percentile(lat, 0.50) / 1e3, "us");
  r.put("query_p99_us", w.untraced.tail_p99() / 1e3, "us");
  r.put("queries", static_cast<double>(w.untraced.done), "count");
  r.put("host.steal_pct", w.steal_pct, "%");
}

// Registry-difference metrics of every serving layer (all shards summed).
void put_registry_layers(const RegistryDelta& d, const WindowCounts& wc,
                         double window_s, double engine_pools, Result& r) {
  static const char* kClasses[] = {"base_hit", "fault_hit", "miss_coalesced",
                                   "miss_leader", "approx_hit", "escalated"};
  double fetches = 0;
  for (const char* c : kClasses) fetches += d.counter("server", std::string(c) + ".fetches");
  for (const char* c : kClasses)
    r.put(std::string("shard.outcome.") + c,
          ratio(d.counter("server", std::string(c) + ".fetches"), fetches),
          "fraction");
  r.put("shard.stability_fast_path_frac",
        ratio(d.counter("server", "stability_fast_paths"),
              static_cast<double>(wc.kinds[kRepl])),
        "fraction");

  const double updates = d.counter("generations", "published");
  r.put("generation.publish_wait_ms",
        ratio(d.counter("generations", "publish_wait_ns"), updates) / 1e6, "ms");

  const double hits = d.counter("cache", "hits"), misses = d.counter("cache", "misses");
  r.put("cache.hit_rate", ratio(hits, hits + misses), "fraction");
  r.put("cache.evictions_per_kq",
        ratio(d.counter("cache", "evictions"), static_cast<double>(wc.queries())) * 1e3,
        "1/kq");
  r.put("cache.bytes_per_tree",
        ratio(d.gauge("cache", "bytes"), d.gauge("cache", "entries")), "B");
  const double carried = d.counter("cache", "carried_forward");
  r.put("cache.carried_frac",
        ratio(carried, carried + d.counter("cache", "invalidated")), "fraction");

  r.put("batcher.coalesced_frac",
        ratio(d.counter("batcher", "coalesced"), d.counter("batcher", "requests")),
        "fraction");
  const auto bs = d.histogram("batcher", "batch_size");
  r.put("batcher.mean_batch", ratio(bs.second, bs.first), "count");
  const double miss_fetches = d.counter("server", "miss_leader.fetches") +
                              d.counter("server", "miss_coalesced.fetches");
  r.put("batcher.queue_wait_us",
        ratio(d.counter("server", "miss_leader.queue_wait_ns") +
                  d.counter("server", "miss_coalesced.queue_wait_ns"),
              miss_fetches) / 1e3,
        "us");

  // Engine busy time: every flush is driven by exactly one miss leader whose
  // compute span is the engine batch; update-path repair batches add theirs.
  const double busy_ns = d.counter("server", "miss_leader.compute_ns") +
                         d.counter("server", "update.repair_ns");
  r.put("engine.busy_frac", ratio(busy_ns, window_s * 1e9 * engine_pools), "fraction");
  const double repaired = d.counter("server", "update.repaired");
  r.put("core.repaired_frac",
        ratio(repaired, repaired + d.counter("server", "update.recomputed")),
        "fraction");
}

void put_aggregator_registry(const RegistryDelta& d, Result& r) {
  r.put("aggregator.subs_per_subquery",
        ratio(d.counter("frontend", "submissions"), d.counter("frontend", "subqueries")),
        "ratio");
  const double flushes = d.counter("frontend", "flush.capacity") +
                         d.counter("frontend", "flush.timeout") +
                         d.counter("frontend", "flush.explicit");
  r.put("aggregator.flush_timeout_frac",
        ratio(d.counter("frontend", "flush.timeout"), flushes), "fraction");
}

// Probes of one shard: pin, cache lookup and a resident-key query.
void probe_shard(OracleShard& shard, Vertex root, Vertex n, uint64_t seed,
                 Result& r) {
  r.put("generation.pin_ns", probe_ns(200000, 1000, [&](size_t) {
          auto pin = shard.pin_generation();
          (void)pin;
        }),
        "ns");
  {
    auto pin = shard.pin_generation();
    const SptKey key(pin->version(), SsspRequest{root, {}, Direction::kOut});
    if (!shard.cache()->lookup(key)) r.note("cache.lookup_ns probe key not resident");
    r.put("cache.lookup_ns",
          probe_ns(200000, 1000, [&](size_t) { (void)shard.cache()->lookup(key); }),
          "ns");
  }
  Rng rng(mix(seed, 0x51));
  std::vector<Vertex> ts(4096);
  for (auto& t : ts) t = static_cast<Vertex>(rng.next_below(n));
  r.put("shard.hit_query_us", probe_ns(200000, 1000, [&](size_t i) {
          (void)shard.distance(root, ts[i % ts.size()]);
        }) / 1e3,
        "us");
}

void probe_aggregator(ShardAggregator& agg, Vertex root, Vertex n,
                      uint64_t seed, Result& r) {
  Rng rng(mix(seed, 0x52));
  std::vector<SsspRequest> reqs;
  for (size_t i = 0; i < kBatchRoots; ++i)
    reqs.push_back({static_cast<Vertex>(rng.next_below(n)), {}, Direction::kOut});
  const uint64_t sid = agg.scheme().scheme_id();
  r.put("router.decompose_ns", probe_ns(100000, 1000, [&](size_t) {
          auto plan = agg.router().decompose(sid, reqs);
          (void)plan;
        }),
        "ns");
  // The same resident sub-query through the aggregator and straight into
  // the owning shard's serve_batch, individually timed and interleaved.
  OracleShard& shard = agg.shard(agg.router().shard_of(sid, root));
  std::vector<uint64_t> via_agg, direct;
  for (int i = 0; i < 300; ++i) {
    const Vertex t = static_cast<Vertex>(rng.next_below(n));
    uint64_t t0 = now_ns();
    (void)agg.distance(root, t);
    via_agg.push_back(now_ns() - t0);
    t0 = now_ns();
    const SsspRequest req{root, {}, Direction::kOut};
    auto pin = shard.pin_generation();
    (void)shard.serve_batch(std::span<const SsspRequest>(&req, 1), pin)[0]->hops(t);
    direct.push_back(now_ns() - t0);
  }
  const double a = percentile(via_agg, 0.5), b = percentile(direct, 0.5);
  r.put("aggregator.overhead_us", (a - b) / 1e3, "us");
  r.put("aggregator.single_p50_us", a / 1e3, "us");
  r.put("aggregator.direct_p50_us", b / 1e3, "us");
}

// A synthetic update batch pair on a static graph, shaped like churn's:
// remove an edge of `root`'s tree and insert a shortcut 3-4 hops from the
// root, then undo both.
std::vector<std::vector<GraphDelta>> synthetic_batches(const Graph& g,
                                                       const Spt& tree,
                                                       uint64_t seed) {
  Rng rng(seed);
  const Vertex root = tree.root;
  EdgeId victim = kNoEdge;
  Vertex far = kNoVertex;
  for (int tries = 0; tries < 100000 && (victim == kNoEdge || far == kNoVertex);
       ++tries) {
    const Vertex v = static_cast<Vertex>(rng.next_below(g.num_vertices()));
    if (victim == kNoEdge && tree.parent_edge(v) != kNoEdge) victim = tree.parent_edge(v);
    if (far == kNoVertex && (tree.hops(v) == 3 || tree.hops(v) == 4) &&
        g.find_edge(root, v) == kNoEdge)
      far = v;
  }
  std::vector<std::vector<GraphDelta>> out;
  if (victim == kNoEdge) return out;
  const Edge ends = g.endpoints(victim);
  if (far == kNoVertex) {
    out.push_back({GraphDelta::remove(victim)});
    out.push_back({GraphDelta::insert(ends.u, ends.v)});
    return out;
  }
  // The shortcut's id is the next slot: the graph appends new edges.
  out.push_back({GraphDelta::remove(victim), GraphDelta::insert(root, far)});
  out.push_back({GraphDelta::insert(ends.u, ends.v),
                 GraphDelta::remove(g.num_edges())});
  return out;
}

std::unique_ptr<obs::Tracer> make_tracer(SpanLog* spans) {
  if (!spans) return nullptr;
  return std::make_unique<obs::Tracer>(
      [spans](const obs::QueryTrace& t) { spans->add_program_trace(t); },
      obs::Tracer::Config{64});
}

Vertex hot_n(bool tiny) { return tiny ? 2000 : 20000; }

}  // namespace

const std::vector<LayerMetric> kServingLayerNames = {
    {"shard.hit_query_us", "us"},
    {"shard.stability_fast_path_frac", "fraction"},
    {"shard.outcome.base_hit", "fraction"},
    {"shard.outcome.fault_hit", "fraction"},
    {"shard.outcome.miss_coalesced", "fraction"},
    {"shard.outcome.miss_leader", "fraction"},
    {"shard.outcome.approx_hit", "fraction"},
    {"shard.outcome.escalated", "fraction"},
    {"generation.pin_ns", "ns"},
    {"generation.publish_wait_ms", "ms"},
    {"cache.lookup_ns", "ns"},
    {"cache.hit_rate", "fraction"},
    {"cache.evictions_per_kq", "1/kq"},
    {"cache.bytes_per_tree", "B"},
    {"cache.carried_frac", "fraction"},
    {"batcher.coalesced_frac", "fraction"},
    {"batcher.mean_batch", "count"},
    {"batcher.queue_wait_us", "us"},
    {"engine.trees_per_kq", "1/kq"},
    {"engine.busy_frac", "fraction"},
    {"core.repaired_frac", "fraction"},
    {"bench.update_late_ms", "ms"}};
const std::vector<LayerMetric> kAggregatorLayerNames = {
    {"router.decompose_ns", "ns"},
    {"aggregator.overhead_us", "us"},
    {"aggregator.subs_per_subquery", "ratio"},
    {"aggregator.flush_timeout_frac", "fraction"}};

uint64_t scheme_seed(uint64_t seed) { return mix(seed, 0x5c4e); }

// =========================================================================
// hot_read: OracleServer, exact tier, every key resident.
// =========================================================================

Result run_hot_read(const Args& args) {
  Result r;
  const Vertex n = hot_n(args.tiny);
  const size_t clients = 2;
  std::unique_ptr<SpanLog> spans = args.trace ? std::make_unique<SpanLog>(clients) : nullptr;
  const auto tracer = make_tracer(spans.get());

  struct Stack {
    Graph g;
    std::unique_ptr<IsolationRpts> pi;
    BatchSsspEngine engine{2};
    std::unique_ptr<OracleServer> server;
    HotSet hot;
    std::vector<Query> pool;
  };
  std::unique_ptr<Stack> st;
  SetupTimes setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    st.reset();
    std::map<std::string, double> ph;
    Stopwatch sw;
    st = std::make_unique<Stack>();
    st->g = sparse_connected(n, 3.0, mix(args.seed, 1));
    ph["gen"] = sw.seconds();
    sw.reset();
    st->pi = make_default_rpts(st->g, scheme_seed(args.seed));
    ServerConfig cfg;
    cfg.engine = &st->engine;
    cfg.tracer = tracer.get();
    st->server = std::make_unique<OracleServer>(*st->pi, cfg);
    ph["scheme"] = sw.seconds();
    sw.reset();
    // Warm-up: every hot base tree, then four fault trees per root drawn
    // from that tree, so every key the mix asks for is resident.
    st->hot.roots = distinct_vertices(n, 16, mix(args.seed, 2));
    for (size_t i = 0; i < st->hot.roots.size(); ++i) {
      const auto tree = st->server->tree({st->hot.roots[i], {}, Direction::kOut});
      st->hot.faults.push_back(tree_edges_sample(*tree, 4, mix(args.seed, 100 + i)));
      for (EdgeId e : st->hot.faults.back())
        (void)st->server->tree({st->hot.roots[i], FaultSet{e}, Direction::kOut});
    }
    st->pool = make_pool(args.tiny ? kTinyPool : kPool, mix(args.seed, 3),
                         st->hot, n, {60, 10, 20, 10});
    ph["warm"] = sw.seconds();
    setup.add(ph);
  }
  setup.report(r);

  OracleServer& server = *st->server;
  std::vector<ClientState> states(clients);
  const auto before = server.metrics().snapshot();
  const uint64_t eng0 = st->engine.stats().requests;
  const Window w = run_window(args, clients, spans.get(), [&](ClientCtx& ctx) {
    serve_op(server, st->hot, st->pool, states, ctx);
  });
  const uint64_t eng1 = st->engine.stats().requests;
  const auto after = server.metrics().snapshot();
  r.put("peak_rss_mb", peak_rss_mb(), "MB");
  put_e2e(w, r);
  WindowCounts wc;
  auto samples = gather(states, wc.kinds);
  r.attempted = w.attempted();
  r.failed = w.failed();

  std::vector<const Sample*> ptrs;
  for (const auto& s : samples) ptrs.push_back(&s);
  size_t checked = 0;
  // Reference: the graph regenerated from the seed, scheme rebuilt from
  // scratch.
  const Graph fresh = sparse_connected(n, 3.0, mix(args.seed, 1));
  check_samples(fresh, scheme_seed(args.seed), ptrs, st->hot, 256, r, checked);
  r.put("checked_answers", static_cast<double>(checked), "count");
  if (checked == 0) r.fail_check("no answers were checked");

  if (!args.trace) return r;

  const RegistryDelta d(before, after);
  const double window_s = w.untraced.seconds + w.traced.seconds;
  put_registry_layers(d, wc, window_s, 1, r);
  r.put("engine.trees_per_kq",
        ratio(static_cast<double>(eng1 - eng0), static_cast<double>(wc.queries())) * 1e3,
        "1/kq");
  r.put("bench.update_late_ms", 0, "ms");
  probe_shard(server, st->hot.roots[0], n, args.seed, r);

  LayerInputs in;
  in.pi = st->pi.get();
  in.g = &st->g;
  in.scheme_seed = scheme_seed(args.seed);
  in.engine = &st->engine;
  for (size_t i = 0; i < st->hot.roots.size(); ++i) {
    in.reqs.push_back({st->hot.roots[i], {}, Direction::kOut});
    for (EdgeId e : st->hot.faults[i])
      in.reqs.push_back({st->hot.roots[i], FaultSet{e}, Direction::kOut});
  }
  for (const auto& q : in.reqs) in.trees.push_back(server.tree(q));
  in.batches = synthetic_batches(st->g, *in.trees[0], mix(args.seed, 7));
  in.out_dir = args.out_dir;
  probe_graph_core_engine(in, r);
  zero_layers(r, kAggregatorLayerNames);
  zero_layers(r, kRpLayerNames);
  zero_layers(r, kWorkloadOnlyNames);

  // Budget: a distance hit is one pin, one cache lookup and one hops read.
  put_budget(r, "hot_read hit p50 (oracle_shard.distance span)",
             spans->p50_ns("oracle_shard.distance") / 1e3,
             {{"generation.pin", get(r, "generation.pin_ns") / 1e3},
              {"cache.lookup", get(r, "cache.lookup_ns") / 1e3}},
             "us");
  put_budget(r, "hot_read hit p50 (probe vs window span)",
             spans->p50_ns("oracle_shard.distance") / 1e3,
             {{"shard.hit_query", get(r, "shard.hit_query_us")}}, "us");
  put_budget(r, "hot_read base_hit fetch p50 (program trace spans)",
             spans->program_fetch_p50_ns("base_hit") / 1e3,
             {{"cache.lookup", get(r, "cache.lookup_ns") / 1e3}}, "us");
  put_budget(r, "hot_read path p50 (oracle_shard.path span)",
             spans->p50_ns("oracle_shard.path") / 1e3,
             {{"shard.hit_query", get(r, "shard.hit_query_us")},
              {"core.path_walk", get(r, "core.path_walk_us")}},
             "us");
  finish_trace(args, *spans, w, r);
  return r;
}

// =========================================================================
// cold_read: two shards behind the aggregator, miss-heavy.
// =========================================================================

Graph cold_read_graph(uint64_t seed, bool tiny) {
  return sparse_connected(tiny ? 5000 : 100000, 3.0, mix(seed, 1));
}

bool pack_cold_read(uint64_t seed, bool tiny, const std::string& path) {
  return FrozenCsr::freeze(cold_read_graph(seed, tiny)).write(path);
}

Result run_cold_read(const Args& args) {
  Result r;
  const size_t clients = 2;
  const size_t num_roots = args.tiny ? 64 : 512;
  std::unique_ptr<SpanLog> spans = args.trace ? std::make_unique<SpanLog>(clients) : nullptr;
  const auto tracer = make_tracer(spans.get());

  struct Stack {
    Graph g;
    std::unique_ptr<IsolationRpts> pi;
    std::unique_ptr<ShardAggregator> agg;
    std::vector<Vertex> roots;
    std::vector<Query> pool;
  };
  std::unique_ptr<Stack> st;
  SetupTimes setup;
  std::vector<double> load_ms, thaw_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    st.reset();
    std::map<std::string, double> ph;
    st = std::make_unique<Stack>();
    Stopwatch sw;
    auto frozen = FrozenCsr::load(args.rcsr);
    if (!frozen) throw std::runtime_error("cannot load " + args.rcsr);
    load_ms.push_back(sw.millis());
    Stopwatch tw;
    st->g = frozen->thaw();
    thaw_ms.push_back(tw.millis());
    ph["load"] = sw.seconds();
    sw.reset();
    st->pi = make_default_rpts(st->g, scheme_seed(args.seed));
    const Vertex n = st->g.num_vertices();
    st->roots = distinct_vertices(n, num_roots, mix(args.seed, 2));
    // Root popularity is Zipf(1.3) over the root list. The working set is
    // the most popular roots drawing 90% of the traffic. Each shard's budget
    // holds about half of it: the larger of the two shards' shares (the
    // router's split is uneven, and sizing by the smaller share would make
    // the miss rate depend on the seed's split). Trees are sized from one
    // probe tree; one cache shard per oracle shard keeps that an exact LRU.
    std::vector<double> cdf(num_roots);
    double total = 0;
    for (size_t i = 0; i < num_roots; ++i)
      cdf[i] = total += std::pow(static_cast<double>(i + 1), -1.3);
    const size_t working_set =
        std::lower_bound(cdf.begin(), cdf.end(), 0.9 * total) - cdf.begin() + 1;
    FrontEndConfig fe;
    fe.num_shards = 2;
    const ShardRouter router(fe.num_shards, fe.num_slots);
    std::vector<size_t> share(fe.num_shards, 0);
    for (size_t i = 0; i < working_set; ++i)
      ++share[router.shard_of(st->pi->scheme_id(), st->roots[i])];
    const size_t shard_trees = *std::max_element(share.begin(), share.end());
    const size_t tree_bytes = st->pi->spt(st->roots[0]).memory_bytes() + 256;
    fe.total_engine_threads = 2;
    fe.shard.cache.shards = 1;
    fe.shard.cache.byte_budget = shard_trees * tree_bytes;
    fe.tracer = tracer.get();
    st->agg = std::make_unique<ShardAggregator>(*st->pi, fe);
    ph["scheme"] = sw.seconds();
    sw.reset();
    // Queries: Zipf-drawn roots and uniform targets; one in twenty asks
    // about a uniformly random fault, which always misses. Draws are
    // stratified in blocks of 200 (each block holds the Zipf quantiles and
    // exactly ten fault queries, shuffled), so the number of misses a run
    // sees varies little from seed to seed.
    Rng rng(mix(args.seed, 3));
    constexpr size_t kBlock = 200;
    st->pool.resize(args.tiny ? 1021 : 16381);  // primes, as kPool
    for (size_t b = 0; b < st->pool.size(); b += kBlock) {
      const size_t len = std::min(kBlock, st->pool.size() - b);
      for (size_t j = 0; j < len; ++j) {
        Query& q = st->pool[b + j];
        const double u = (static_cast<double>(j) + rng.next_double()) /
                         static_cast<double>(len) * total;
        const size_t idx = std::min<size_t>(
            num_roots - 1, std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        q.s = st->roots[idx];
        q.t = static_cast<Vertex>(rng.next_below(n));
        if (j % 20 == 0) {
          q.kind = kFaultDist;
          q.e = static_cast<EdgeId>(rng.next_below(st->g.num_edges()));
          q.faults = FaultSet{q.e};
        }
      }
      for (size_t j = len; j > 1; --j)
        std::swap(st->pool[b + j - 1], st->pool[b + rng.next_below(j)]);
    }
    // Warm-up: the working set, about what the fleet's budget holds, so the
    // window starts in the steady state. One fan-out per oracle shard, the
    // two in parallel (each shard computes on its own engine).
    std::vector<std::vector<SsspRequest>> head(fe.num_shards);
    for (size_t i = 0; i < std::min(working_set, num_roots); ++i) {
      const SsspRequest req{st->roots[i], {}, Direction::kOut};
      head[st->agg->router().shard_of(st->pi->scheme_id(), req.root)].push_back(req);
    }
    std::vector<std::thread> warmers;
    for (const auto& reqs : head)
      warmers.emplace_back([&agg = *st->agg, &reqs] { (void)agg.tree_batch(reqs); });
    for (auto& t : warmers) t.join();
    ph["warm"] = sw.seconds();
    setup.add(ph);
  }
  setup.report(r);

  ShardAggregator& agg = *st->agg;
  HotSet none;
  std::vector<ClientState> states(clients);
  const auto before = agg.metrics().snapshot();
  const Window w = run_window(args, clients, spans.get(), [&](ClientCtx& ctx) {
    serve_op(agg, none, st->pool, states, ctx);
  });
  const auto after = agg.metrics().snapshot();
  r.put("peak_rss_mb", peak_rss_mb(), "MB");
  put_e2e(w, r);
  WindowCounts wc;
  auto samples = gather(states, wc.kinds);
  r.attempted = w.attempted();
  r.failed = w.failed();
  if (w.untraced.done < 1000)
    r.note("fewer than 1000 queries in the window: p99 has under 10 samples beyond it");

  // Reference: regenerate the graph from the seed (not the loaded image),
  // so pack -> load -> thaw is checked too. Each reference tree is a full
  // SSSP on 10^5 vertices; a dozen distinct keys bound the check's cost.
  std::vector<const Sample*> ptrs;
  for (const auto& s : samples) ptrs.push_back(&s);
  size_t checked = 0;
  check_samples(cold_read_graph(args.seed, args.tiny), scheme_seed(args.seed),
                ptrs, none, 12, r, checked);
  r.put("checked_answers", static_cast<double>(checked), "count");
  if (checked == 0) r.fail_check("no answers were checked");

  if (!args.trace) return r;

  const RegistryDelta d(before, after);
  const double window_s = w.untraced.seconds + w.traced.seconds;
  put_registry_layers(d, wc, window_s, 2, r);
  put_aggregator_registry(d, r);
  r.put("engine.trees_per_kq",
        ratio(d.counter("engine", "requests"), static_cast<double>(wc.queries())) * 1e3,
        "1/kq");
  r.put("bench.update_late_ms", 0, "ms");
  r.put("graph.rcsr_load_ms", median_d(load_ms), "ms");
  r.put("graph.thaw_ms", median_d(thaw_ms), "ms");

  const Vertex n = st->g.num_vertices();
  const Vertex head = st->roots[0];
  OracleShard& shard = agg.shard(agg.router().shard_of(st->pi->scheme_id(), head));
  (void)agg.tree({head, {}, Direction::kOut});  // make sure it is resident
  probe_shard(shard, head, n, args.seed, r);
  probe_aggregator(agg, head, n, args.seed, r);

  LayerInputs in;
  in.pi = st->pi.get();
  in.g = &st->g;
  in.scheme_seed = scheme_seed(args.seed);
  in.engine = nullptr;  // one shard's engine: the shared engine stands in
  for (size_t i = 0; i < std::min<size_t>(4, st->roots.size()); ++i)
    in.reqs.push_back({st->roots[i], {}, Direction::kOut});
  for (const auto& q : in.reqs) in.trees.push_back(agg.tree(q));
  in.batches = synthetic_batches(st->g, *in.trees[0], mix(args.seed, 7));
  in.out_dir = args.out_dir;
  in.probe_rcsr = false;
  in.sssp_reps = 2;
  const BatchSsspEngine probe_engine(1);
  in.engine = &probe_engine;
  probe_graph_core_engine(in, r);
  zero_layers(r, kRpLayerNames);
  zero_layers(r, kWorkloadOnlyNames);

  const auto miss = d.histogram("server", "miss_leader.latency_ns");
  put_budget(r, "cold_read miss latency (miss_leader per-outcome mean)",
             ratio(miss.second, miss.first) / 1e6,
             {{"engine.sssp", get(r, "engine.sssp_ms")},
              {"batcher.queue_wait", get(r, "batcher.queue_wait_us") / 1e3}},
             "ms");
  const auto miss_compute = d.counter("server", "miss_leader.compute_ns");
  put_budget(r, "cold_read miss compute (registry) vs engine probe",
             ratio(miss_compute, miss.first) / 1e6,
             {{"engine.sssp", get(r, "engine.sssp_ms")}}, "ms");
  finish_trace(args, *spans, w, r);
  return r;
}

// =========================================================================
// churn: reads beside an open-loop stream of delta batches.
// =========================================================================

Result run_churn(const Args& args) {
  Result r;
  const Vertex n = args.tiny ? 300 : 2000;
  const size_t clients = 2;
  const double rate = 40;  // delta batches per second, open loop
  std::unique_ptr<SpanLog> spans =
      args.trace ? std::make_unique<SpanLog>(clients + 1) : nullptr;
  const auto tracer = make_tracer(spans.get());

  struct Cycle {
    EdgeId victim;
    Vertex u, v;       // victim endpoints (the heal re-inserts them)
    Vertex root, far;  // shortcut endpoints
  };
  struct Stack {
    Graph g;
    std::unique_ptr<IsolationRpts> pi;
    BatchSsspEngine engine{2};
    std::unique_ptr<ShardAggregator> agg;
    HotSet hot;
    std::vector<Query> pool;
    std::vector<Cycle> cycles;
  };
  std::unique_ptr<Stack> st;
  SetupTimes setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    st.reset();
    std::map<std::string, double> ph;
    Stopwatch sw;
    st = std::make_unique<Stack>();
    st->g = gnp_connected(n, 8.0 / n, mix(args.seed, 1));
    ph["gen"] = sw.seconds();
    sw.reset();
    st->pi = make_default_rpts(st->g, scheme_seed(args.seed));
    FrontEndConfig fe;
    fe.num_shards = 2;
    fe.shard.engine = &st->engine;
    fe.tracer = tracer.get();
    st->agg = std::make_unique<ShardAggregator>(*st->pi, fe);
    ph["scheme"] = sw.seconds();
    sw.reset();
    st->hot.roots = distinct_vertices(n, 16, mix(args.seed, 2));
    std::vector<SsspRequest> warm;
    for (Vertex root : st->hot.roots) {
      warm.push_back({root, {}, Direction::kOut});
      warm.push_back({root, {}, Direction::kOut, kEpsQ});
    }
    const auto bases = st->agg->tree_batch(warm);
    warm.clear();
    Rng rng(mix(args.seed, 4));
    for (size_t i = 0; i < st->hot.roots.size(); ++i) {
      const Spt& tree = *bases[2 * i];
      st->hot.faults.push_back(tree_edges_sample(tree, 4, mix(args.seed, 100 + i)));
      for (EdgeId e : st->hot.faults.back())
        warm.push_back({st->hot.roots[i], FaultSet{e}, Direction::kOut});
      // Sixteen update cycles per hot root: a tree edge to cut and heal, and
      // a shortcut from the root to a vertex 3-4 hops out. A window applies
      // fewer cycles than there are, so it averages over many distinct
      // victims instead of repeating a few whose cost depends on the seed.
      for (int c = 0; c < 16; ++c) {
        Cycle cy{kNoEdge, 0, 0, st->hot.roots[i], kNoVertex};
        for (int tries = 0; tries < 100000 &&
                            (cy.victim == kNoEdge || cy.far == kNoVertex);
             ++tries) {
          const Vertex v = static_cast<Vertex>(rng.next_below(n));
          if (cy.victim == kNoEdge && tree.parent_edge(v) != kNoEdge)
            cy.victim = tree.parent_edge(v);
          if (cy.far == kNoVertex && (tree.hops(v) == 3 || tree.hops(v) == 4) &&
              st->g.find_edge(cy.root, v) == kNoEdge)
            cy.far = v;
        }
        if (cy.victim == kNoEdge || cy.far == kNoVertex) continue;
        cy.u = st->g.endpoints(cy.victim).u;
        cy.v = st->g.endpoints(cy.victim).v;
        st->cycles.push_back(cy);
      }
    }
    (void)st->agg->tree_batch(warm);
    st->pool = make_pool(args.tiny ? kTinyPool : kPool, mix(args.seed, 3),
                         st->hot, n, {55, 20, 15, 0, 5, 5});
    ph["warm"] = sw.seconds();
    setup.add(ph);
  }
  setup.report(r);
  if (st->cycles.empty()) throw std::runtime_error("churn: no update cycles");

  ShardAggregator& agg = *st->agg;
  const Graph pristine = st->g;
  // Open-loop mutator: batch k is due at t0 + k / rate whether or not the
  // previous one has finished. It stops only on a cycle boundary, so the
  // graph ends in its pristine topology.
  struct Log {
    std::vector<std::vector<GraphDelta>> batches;
    std::vector<uint64_t> epochs, lat_ns, late_ns;
    uint64_t failed = 0;
  } log;
  std::atomic<bool> stop{false};
  const uint64_t period_ns = static_cast<uint64_t>(1e9 / rate);
  std::thread mutator([&] {
    const uint64_t t0 = now_ns();
    EdgeId shortcut = kNoEdge;
    for (uint64_t k = 0;; ++k) {
      if (k % 2 == 0 && stop.load()) break;
      const uint64_t due = t0 + k * period_ns;
      while (now_ns() < due) {
        if (k % 2 == 0 && stop.load()) return;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      const uint64_t start = now_ns();
      const Cycle& cy = st->cycles[(k / 2) % st->cycles.size()];
      std::vector<GraphDelta> deltas;
      if (k % 2 == 0)
        deltas = {GraphDelta::remove(cy.victim), GraphDelta::insert(cy.root, cy.far)};
      else
        deltas = {GraphDelta::insert(cy.u, cy.v), GraphDelta::remove(shortcut)};
      try {
        SpanScope span(stop.load() ? nullptr : spans.get(), clients, k, 0, -1,
                       "shard_aggregator.apply_updates");
        const UpdateResult res = agg.apply_updates(st->g, deltas);
        if (k % 2 == 0) shortcut = res.batch.deltas[1].edge;
        log.batches.push_back(deltas);
        log.epochs.push_back(res.new_epoch);
      } catch (...) {
        ++log.failed;
        return;  // the schedule cannot continue on an unknown topology
      }
      const uint64_t end = now_ns();
      log.late_ns.push_back(start - due);
      log.lat_ns.push_back(end - due);
    }
  });

  std::vector<ClientState> states(clients);
  const auto before = agg.metrics().snapshot();
  const uint64_t eng0 = st->engine.stats().requests;
  const Window w = run_window(args, clients, spans.get(), [&](ClientCtx& ctx) {
    serve_op(agg, st->hot, st->pool, states, ctx);
  });
  stop.store(true);
  mutator.join();
  const uint64_t eng1 = st->engine.stats().requests;
  const auto after = agg.metrics().snapshot();
  r.put("peak_rss_mb", peak_rss_mb(), "MB");
  put_e2e(w, r);
  std::vector<uint64_t> lat = log.lat_ns;
  r.put("update_p50_ms", percentile(lat, 0.50) / 1e6, "ms");
  r.put("update_p90_ms", percentile(lat, 0.90) / 1e6, "ms");
  r.put("updates", static_cast<double>(lat.size()), "count");
  if (lat.size() < 100) r.note("fewer than 100 updates: update_p90_ms is thin");
  WindowCounts wc;
  auto samples = gather(states, wc.kinds);
  r.attempted = w.attempted() + log.lat_ns.size() + log.failed;
  r.failed = w.failed() + log.failed;

  // Check: replay the logged batches on the pristine graph and compare every
  // sample with a scheme rebuilt from scratch at the epoch it was served at.
  if (agg.routed_epoch() != st->g.epoch())
    r.fail_check("routed epoch differs from the graph epoch");
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.epoch < b.epoch; });
  Graph ref = pristine;
  size_t next = 0, checked = 0;
  for (size_t i = 0; i < samples.size() && r.correct;) {
    const uint64_t epoch = samples[i].epoch;
    while (ref.epoch() < epoch && next < log.batches.size())
      (void)ref.apply(std::span<const GraphDelta>(log.batches[next++]));
    std::vector<const Sample*> at;
    for (; i < samples.size() && samples[i].epoch == epoch; ++i)
      at.push_back(&samples[i]);
    if (ref.epoch() != epoch) {
      r.fail_check("cannot replay to epoch " + std::to_string(epoch));
      break;
    }
    check_samples(ref, scheme_seed(args.seed), at, st->hot, 1 << 20, r, checked);
  }
  r.put("checked_answers", static_cast<double>(checked), "count");
  if (checked == 0) r.fail_check("no answers were checked");

  if (!args.trace) return r;

  const RegistryDelta d(before, after);
  const double window_s = w.untraced.seconds + w.traced.seconds;
  put_registry_layers(d, wc, window_s, 1, r);
  put_aggregator_registry(d, r);
  r.put("engine.trees_per_kq",
        ratio(static_cast<double>(eng1 - eng0), static_cast<double>(wc.queries())) * 1e3,
        "1/kq");
  std::vector<uint64_t> late = log.late_ns;
  r.put("bench.update_late_ms", percentile(late, 0.90) / 1e6, "ms");

  const Vertex root = st->hot.roots[0];
  OracleShard& shard = agg.shard(agg.router().shard_of(st->pi->scheme_id(), root));
  probe_shard(shard, root, n, args.seed, r);
  probe_aggregator(agg, root, n, args.seed, r);

  LayerInputs in;
  in.pi = st->pi.get();
  in.g = &st->g;
  in.scheme_seed = scheme_seed(args.seed);
  in.engine = &st->engine;
  for (size_t i = 0; i < st->hot.roots.size(); ++i) {
    in.reqs.push_back({st->hot.roots[i], {}, Direction::kOut});
    in.reqs.push_back({st->hot.roots[i], {}, Direction::kOut, kEpsQ});
    for (EdgeId e : st->hot.faults[i])
      in.reqs.push_back({st->hot.roots[i], FaultSet{e}, Direction::kOut});
  }
  in.trees = agg.tree_batch(in.reqs);
  // The captured batches: the first cycle of the window, which applies to
  // the pristine topology the graph is back in.
  for (size_t b = 0; b < 2 && b < log.batches.size(); ++b)
    in.batches.push_back(log.batches[b]);
  in.out_dir = args.out_dir;
  probe_graph_core_engine(in, r);
  zero_layers(r, kRpLayerNames);
  zero_layers(r, kWorkloadOnlyNames);

  const double per_update_invalidated =
      ratio(d.counter("cache", "invalidated"), static_cast<double>(lat.size()));
  put_budget(r, "churn update p50",
             get(r, "update_p50_ms"),
             {{"graph.apply", get(r, "graph.apply_ms")},
              {"graph.snapshot", get(r, "graph.snapshot_ms")},
              {"cache.advance_epoch", get(r, "cache.advance_epoch_ms")},
              {"generation.publish_wait", get(r, "generation.publish_wait_ms")},
              // Repairs run as one engine batch across the engine's lanes.
              {"invalidated x core.repair / lanes",
               per_update_invalidated * get(r, "core.repair_ms") / st->engine.threads()}},
             "ms");
  put_budget(r, "churn aggregator single p50 (shard_aggregator.distance span)",
             spans->p50_ns("shard_aggregator.distance") / 1e3,
             {{"aggregator.overhead", get(r, "aggregator.overhead_us")},
              {"shard.hit_query", get(r, "shard.hit_query_us")}},
             "us");
  finish_trace(args, *spans, w, r);
  return r;
}

}  // namespace perfbench
