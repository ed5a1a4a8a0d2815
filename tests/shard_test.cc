// Tests for the sharded serving tier (src/serve/shard_router.h,
// shard_aggregator.h): consistent-hash stability under fleet growth,
// bit-identical answers at every shard count, exact per-shard submission
// counts from the group-by-shard rule,
// epoch-coherent update fan-out with pinned readers surviving it, the
// compact-aware repair fast path staying bit-identical to the
// thaw-repair-compact round-trip it replaces, and a zero-budget cache that
// retains nothing while every shard still answers.
#include "serve/shard_aggregator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "serve/shard_router.h"

namespace restorable {
namespace {

void expect_same_tree(const Spt& got, const Spt& want) {
  EXPECT_EQ(got.root, want.root);
  EXPECT_EQ(got.dir, want.dir);
  ASSERT_EQ(got.num_vertices(), want.num_vertices());
  for (Vertex v = 0; v < want.num_vertices(); ++v) {
    EXPECT_EQ(got.hops(v), want.hops(v)) << "v=" << v;
    EXPECT_EQ(got.parent(v), want.parent(v)) << "v=" << v;
    EXPECT_EQ(got.parent_edge(v), want.parent_edge(v)) << "v=" << v;
  }
}

// ---------------------------------------------------------------------------
// Routing layer.

// Growing the fleet 2 -> 3 must move about 1/3 of the keys and never
// meaningfully more: the rendezvous slot assignment reassigns a slot only
// when the NEW shard wins its draw, so the moved fraction concentrates
// around 1/(N+1). A naive `hash % N` would move ~2/3 here.
TEST(ShardRouter, GrowthMovesBoundedKeyFraction) {
  const uint64_t scheme_id = 0x9d2c5680u;
  const ShardRouter r2(2), r3(3);
  const int kKeys = 20000;
  int moved = 0;
  for (Vertex root = 0; root < kKeys; ++root) {
    const size_t before = r2.shard_of(scheme_id, root);
    const size_t after = r3.shard_of(scheme_id, root);
    if (before != after) {
      // A moved key may only move TO the new shard -- rendezvous never
      // shuffles keys between surviving shards.
      EXPECT_EQ(after, 2u) << "root " << root << " moved " << before
                           << " -> " << after;
      ++moved;
    }
  }
  EXPECT_GT(moved, 0);
  // Expected 1/3; the slack absorbs the slot-level variance of 4096 draws.
  EXPECT_LE(moved, static_cast<int>(kKeys * (1.0 / 3.0 + 0.06)));

  // And the partition stays usable: every shard owns a fair share of slots.
  std::vector<int> owned(3, 0);
  for (uint32_t s = 0; s < r3.num_slots(); ++s) ++owned[r3.shard_of_slot(s)];
  for (size_t k = 0; k < 3; ++k)
    EXPECT_GT(owned[k], static_cast<int>(r3.num_slots() / 3 / 2))
        << "shard " << k << " starved of slots";
}

// The mapping is a pure function of (scheme_id, root, shard count): two
// independently built routers agree everywhere, and any number of threads
// reading one router see the identical mapping (the table is immutable
// after construction -- routing is a wait-free array read).
TEST(ShardRouter, DeterministicAcrossInstancesAndThreads) {
  const uint64_t scheme_id = 0xfeedbeefu;
  const ShardRouter a(4), b(4);
  const int kKeys = 5000;
  std::vector<size_t> want(kKeys);
  for (Vertex root = 0; root < kKeys; ++root) {
    want[root] = a.shard_of(scheme_id, root);
    ASSERT_EQ(b.shard_of(scheme_id, root), want[root]);
  }
  for (const int nthreads : {1, 2, 8}) {
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < nthreads; ++t)
      threads.emplace_back([&] {
        for (Vertex root = 0; root < kKeys; ++root)
          if (a.shard_of(scheme_id, root) != want[root])
            mismatches.fetch_add(1, std::memory_order_relaxed);
      });
    for (auto& th : threads) th.join();
    EXPECT_EQ(mismatches.load(), 0) << "at " << nthreads << " threads";
  }
}

// All trees of one root land on one shard forever: the route hash ignores
// epoch, faults, direction, and epsilon by construction, so a query's base
// tree, fault trees, and approximate trees never split across shards.
TEST(ShardRouter, RouteHashIgnoresEverythingButRoot) {
  const ShardRouter r(8);
  const uint64_t scheme_id = 42;
  for (Vertex root = 0; root < 200; ++root) {
    const size_t k = r.shard_of(scheme_id, root);
    // shard_of only consumes (scheme_id, root); this asserts the KEY design
    // (SsspRequest variation is invisible to routing) rather than the code
    // path -- decompose() routes requests by .root alone.
    std::vector<SsspRequest> reqs{{root, {}, Direction::kOut},
                                  {root, FaultSet{3}, Direction::kIn},
                                  {root, {}, Direction::kOut, 128}};
    const ShardRouter::Plan plan = r.decompose(scheme_id, reqs);
    ASSERT_EQ(plan.touched.size(), 1u);
    EXPECT_EQ(plan.touched[0], k);
    EXPECT_EQ(plan.by_shard[k].size(), 3u);
    EXPECT_EQ(plan.origin[k].size(), 3u);
  }
}

// ---------------------------------------------------------------------------
// Compact-aware repair fast path (Spt::compact_from).

// Repairing a compact tree must come back compact WITHOUT the
// thaw -> repair -> full-compact round-trip changing a single label: the
// patched image must be bit-identical to both the explicit round-trip and a
// from-scratch recompute, for exact and approximate tiers alike.
TEST(CompactRepair, PatchedImageBitIdenticalToRoundTrip) {
  Graph g = gnp_connected(80, 0.06, 17);
  const IsolationRpts pi(g, IsolationAtw(18));

  for (const uint32_t eps_q : {uint32_t{0}, quantize_epsilon(0.25)}) {
    // Build the old-epoch compact trees before the mutation.
    std::vector<Spt> compact_before;
    for (Vertex r = 0; r < 8; ++r) {
      Spt fat = eps_q ? *pi.spt_batch(std::vector<SsspRequest>{
                             {r, {}, Direction::kOut, eps_q}})[0]
                      : pi.spt(r);
      fat.attach_endpoints(g.shared_endpoints());
      compact_before.push_back(fat.compacted());
      ASSERT_TRUE(compact_before.back().is_compact());
    }

    // Remove a tree edge of root 0 so at least one repair does real work.
    Vertex x = 1;
    while (compact_before[0].parent_edge(x) == kNoEdge) ++x;
    const GraphDelta d = GraphDelta::remove(compact_before[0].parent_edge(x));
    const DeltaBatch batch =
        g.apply(std::span<const GraphDelta>(&d, 1));
    ASSERT_TRUE(batch.changed());

    for (Vertex r = 0; r < 8; ++r) {
      const Spt& old_tree = compact_before[r];
      RepairOutcome out =
          eps_q ? pi.repair_tree_eps(old_tree, batch, {}, 1.0, eps_q)
                : pi.repair_tree(old_tree, batch, {}, 1.0);
      // max_affected_fraction = 1.0: the repair may touch everything, so it
      // never declines -- and with a compact input the fast path must have
      // handed the tree back already compact.
      EXPECT_TRUE(out.tree.is_compact()) << "root " << r;

      // Reference 1: the old round-trip, thaw -> repair -> compact().
      RepairOutcome ref =
          eps_q ? pi.repair_tree_eps(old_tree.thawed(), batch, {}, 1.0, eps_q)
                : pi.repair_tree(old_tree.thawed(), batch, {}, 1.0);
      ASSERT_TRUE(ref.tree.compact());
      expect_same_tree(out.tree, ref.tree);
      EXPECT_EQ(out.repaired, ref.repaired);

      // Reference 2 (exact tier only; the approximate tier's repair
      // contract is the stretch bound, not bit-identity to a fresh relaxed
      // run): a from-scratch recompute on the new topology.
      if (!eps_q) expect_same_tree(out.tree, pi.spt(r));
    }

    // Heal the edge so the second (approximate) round starts from the
    // original topology. The applied batch's copy carries the endpoints
    // (the local delta was passed by const span and stays unfilled).
    const GraphDelta& applied = batch.deltas.front();
    GraphDelta heal = GraphDelta::insert(applied.u, applied.v);
    ASSERT_TRUE(g.apply(heal));
  }
}

// A removal that detaches more than the affected-region limit sends a
// repair to its fallback: an exact recompute on the engine the caller
// passes, which yields the reference tree and shows in that engine's
// counters. Cycle(40) from root 0: vertex 1 hangs off the root, and about
// half the cycle hangs off it.
struct FallbackCase {
  Graph g = cycle(40);
  const IsolationRpts pi{g, IsolationAtw(21)};
  const uint32_t eps_q = quantize_epsilon(0.25);
  const Spt old_tree = pi.spt(0);
  DeltaBatch batch;

  FallbackCase() {
    const GraphDelta d = GraphDelta::remove(old_tree.parent_edge(1));
    batch = g.apply(std::span<const GraphDelta>(&d, 1));
  }
};

TEST(CompactRepair, EpsRepairFallbackIsTheExactTree) {
  FallbackCase c;
  ASSERT_TRUE(c.batch.changed());
  // Limit max(8, 0.1 * 40) = 8 detached vertices: the recompute is one
  // request on the private engine.
  const BatchSsspEngine engine(1);
  const RepairOutcome out =
      c.pi.repair_tree_eps(c.old_tree, c.batch, {}, 0.1, c.eps_q, &engine);
  EXPECT_FALSE(out.repaired);
  EXPECT_EQ(engine.stats().requests, 1u);
  expect_same_tree(out.tree, c.pi.spt(0));
}

TEST(CompactRepair, ExactRepairFallbackRunsOnTheEngine) {
  FallbackCase c;
  ASSERT_TRUE(c.batch.changed());
  const BatchSsspEngine engine(1);
  const RepairOutcome out =
      c.pi.repair_tree(c.old_tree, c.batch, {}, 0.1, &engine);
  EXPECT_FALSE(out.repaired);
  EXPECT_EQ(engine.stats().requests, 1u);
  expect_same_tree(out.tree, c.pi.spt(0));
}

// The same two fallbacks reached through a shard's update path: both run on
// the shard's configured engine, so its `engine` metrics component counts
// them.
TEST(CompactRepair, ShardEngineCountsBothRepairFallbacks) {
  Graph g = cycle(40);
  const IsolationRpts pi(g, IsolationAtw(21));
  const BatchSsspEngine engine(1);
  ServerConfig cfg;
  cfg.engine = &engine;
  OracleShard shard(pi, cfg);
  const SsspRequest exact{0, {}, Direction::kOut};
  const SsspRequest approx{0, {}, Direction::kOut, quantize_epsilon(0.25)};
  const EdgeId victim = shard.tree(exact)->parent_edge(1);
  shard.tree(approx);

  const double before = shard.metrics().snapshot().value_or("engine",
                                                            "requests");
  // Default limit max(8, 0.25 * 40) = 10 < the ~20 detached vertices.
  const UpdateResult res = shard.apply_update(g, GraphDelta::remove(victim));
  ASSERT_EQ(res.invalidated, 2u);
  EXPECT_EQ(res.prewarmed, 2u);
  EXPECT_EQ(res.repaired, 0u);
  const double after = shard.metrics().snapshot().value_or("engine",
                                                           "requests");
  EXPECT_EQ(after - before, 2.0);
  expect_same_tree(*shard.tree(exact), pi.spt(0));
}

// A fat repair input (no compact image to reuse) must be left fat: the fast
// path is strictly opt-in by the old tree's storage form.
TEST(CompactRepair, FatInputStaysFat) {
  Graph g = gnp_connected(40, 0.1, 19);
  const IsolationRpts pi(g, IsolationAtw(20));
  const Spt old_tree = pi.spt(3);
  Vertex x = 1;
  while (old_tree.parent_edge(x) == kNoEdge) ++x;
  const GraphDelta d = GraphDelta::remove(old_tree.parent_edge(x));
  const DeltaBatch batch = g.apply(std::span<const GraphDelta>(&d, 1));
  const RepairOutcome out = pi.repair_tree(old_tree, batch, {}, 1.0);
  EXPECT_FALSE(out.tree.is_compact());
  expect_same_tree(out.tree, pi.spt(3));
}

// ---------------------------------------------------------------------------
// Front-end: deterministic group-by-shard.

FrontEndConfig small_config(size_t shards, const BatchSsspEngine* engine) {
  FrontEndConfig fc;
  fc.num_shards = shards;
  fc.shard.engine = engine;
  fc.shard.cache.shards = 2;
  return fc;
}

// The tentpole acceptance gate in miniature: the same query stream answered
// at 1, 2, and 4 shards must be bit-identical to the single-scheme
// reference -- sharding repartitions work, never changes the scheme.
TEST(ShardAggregator, BitIdenticalAcrossShardCounts) {
  Graph g = gnp_connected(60, 0.08, 7);
  const IsolationRpts pi(g, IsolationAtw(8));
  const BatchSsspEngine engine(2);

  std::vector<SsspRequest> all;
  for (Vertex r = 0; r < g.num_vertices(); ++r)
    all.push_back({r, {}, Direction::kOut});

  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    ShardAggregator fe(pi, small_config(shards, &engine));
    const auto trees = fe.tree_batch(all);
    ASSERT_EQ(trees.size(), all.size());
    for (Vertex r = 0; r < g.num_vertices(); ++r) {
      ASSERT_NE(trees[r], nullptr);
      expect_same_tree(*trees[r], pi.spt(r));
    }
    // Point queries agree too, including the fault tier and the
    // stability fast path.
    EXPECT_EQ(fe.distance(0, 5), pi.spt(0).hops(5));
    EXPECT_EQ(fe.distance(3, 9, FaultSet{1}),
              pi.spt(3, FaultSet{1}).hops(9));
    const Spt base = pi.spt(2);
    Vertex x = 1;
    while (base.parent_edge(x) == kNoEdge) ++x;
    EXPECT_EQ(fe.replacement_distance(2, x, base.parent_edge(x)),
              pi.spt(2, FaultSet{base.parent_edge(x)}).hops(x));
    const auto s = fe.stats();
    EXPECT_EQ(s.remote_hits + s.aggregated, s.subqueries);
  }
}

// The group-by-shard rule's exact cost: a k-root tree_batch is one
// serve_batch per touched shard (<= min(k, shards)), cold or warm, and every
// single is exactly one -- structural, not a timing accident.
TEST(ShardAggregator, SubmissionsArePerTouchedShard) {
  Graph g = gnp_connected(64, 0.07, 27);
  const IsolationRpts pi(g, IsolationAtw(28));
  const BatchSsspEngine engine(2);
  const size_t kShards = 4, kRoots = 16;

  std::vector<SsspRequest> reqs;
  for (Vertex r = 0; r < kRoots; ++r) reqs.push_back({r, {}, Direction::kOut});

  ShardAggregator fe(pi, small_config(kShards, &engine));
  const size_t touched =
      fe.router().decompose(pi.scheme_id(), reqs).touched.size();
  ASSERT_GT(touched, 1u);  // the fixture really fans out
  ASSERT_LE(touched, std::min(kRoots, kShards));

  fe.tree_batch(reqs);
  FrontEndStats s = fe.stats();
  EXPECT_EQ(s.queries, 1u);
  EXPECT_EQ(s.subqueries, kRoots);
  EXPECT_EQ(s.submissions, touched);
  EXPECT_EQ(s.aggregated, kRoots);  // cold: every sub-query missed
  EXPECT_EQ(s.remote_hits + s.aggregated, s.subqueries);

  // Warm repeat: every sub-query is a remote hit; still one per shard.
  fe.tree_batch(reqs);
  s = fe.stats();
  EXPECT_EQ(s.submissions, 2 * touched);
  EXPECT_EQ(s.remote_hits, kRoots);
  EXPECT_EQ(s.remote_hits + s.aggregated, s.subqueries);

  // Each single is exactly one submission of one sub-query; the two
  // fetches of a replacement query that leaves the fast path are two.
  const uint64_t before = s.submissions;
  fe.tree({0, {}, Direction::kOut});
  fe.distance(1, 5);
  fe.path(2, 7);
  s = fe.stats();
  EXPECT_EQ(s.submissions, before + 3);
  EXPECT_EQ(s.subqueries, 2 * kRoots + 3);
  const Spt base = pi.spt(3);
  Vertex x = 1;
  while (base.parent_edge(x) == kNoEdge) ++x;
  fe.replacement_distance(3, x, base.parent_edge(x));
  s = fe.stats();
  EXPECT_EQ(s.submissions, before + 5);
  EXPECT_EQ(s.remote_hits + s.aggregated, s.subqueries);
}

// Epoch-coherent fan-out: a pinned reader on one shard survives an
// apply_updates whose new generation is already published on every other
// shard; handles held across the fan-out stay bit-identical to the old
// topology, post-update answers are bit-identical to from-scratch rebuilds
// on the new one, and the router's epoch unblocks only after ALL shards
// absorbed.
TEST(ShardAggregator, EpochCoherentFanoutKeepsPinnedReaders) {
  Graph g = gnp_connected(60, 0.08, 37);
  const IsolationRpts pi(g, IsolationAtw(38));
  const BatchSsspEngine engine(2);
  ShardAggregator fe(pi, small_config(2, &engine));

  // From-scratch reference on the OLD topology, taken before the mutation.
  std::vector<Spt> before;
  for (Vertex r = 0; r < g.num_vertices(); ++r) before.push_back(pi.spt(r));

  // Warm the fleet and hold handles + a generation pin across the update:
  // the pinned reader's world must not change under it.
  std::vector<SsspRequest> all;
  for (Vertex r = 0; r < g.num_vertices(); ++r)
    all.push_back({r, {}, Direction::kOut});
  const auto held = fe.tree_batch(all);
  GenerationManager::Pin pin = fe.shard(0).pin_generation();
  ASSERT_TRUE(pin);

  // Remove a tree edge (guaranteed-effective mutation).
  Vertex x = 1;
  while (before[0].parent_edge(x) == kNoEdge) ++x;
  const EdgeId victim = before[0].parent_edge(x);
  const uint64_t epoch_before = fe.routed_epoch();
  const UpdateResult res = fe.apply_update(g, GraphDelta::remove(victim));
  ASSERT_TRUE(res.changed);

  // The router unblocked the new epoch only once the whole fleet absorbed.
  EXPECT_EQ(fe.routed_epoch(), g.epoch());
  EXPECT_GT(fe.routed_epoch(), epoch_before);
  EXPECT_EQ(fe.stats().fanouts, 1u);
  EXPECT_GT(res.invalidated, 0u);
  EXPECT_EQ(res.prewarmed, res.invalidated);

  // Held handles are bit-identical to the old topology's from-scratch
  // reference -- the fan-out never touched them.
  for (Vertex r = 0; r < g.num_vertices(); ++r)
    expect_same_tree(*held[r], before[r]);

  // The pinned generation is still serviceable on its shard after the
  // fan-out published elsewhere: an old-epoch serve_batch through it
  // returns old-topology answers.
  {
    std::vector<SsspRequest> one{{all[0]}};
    const auto old_view = fe.shard(0).serve_batch(one, pin);
    expect_same_tree(*old_view[0], before[0]);
  }
  pin = GenerationManager::Pin{};  // release; retirement may proceed

  // New queries are bit-identical to from-scratch rebuilds on the NEW
  // topology, on both shards (i.e. for every root).
  const auto after = fe.tree_batch(all);
  for (Vertex r = 0; r < g.num_vertices(); ++r)
    expect_same_tree(*after[r], pi.spt(r));
}

// Churn under concurrent cross-shard load: writer flaps one hot edge while
// query threads hammer multi-shard batches. Answers observed after the last
// flap must match from-scratch rebuilds; every intermediate answer is
// internally consistent (this is the TSan-facing test of the tier).
TEST(ShardAggregator, ChurnDuringCrossShardLoad) {
  Graph g = gnp_connected(40, 0.1, 47);
  const IsolationRpts pi(g, IsolationAtw(48));
  const BatchSsspEngine engine(2);
  ShardAggregator fe(pi, small_config(2, &engine));

  const Spt t0 = pi.spt(0);
  Vertex x = 1;
  while (t0.parent_edge(x) == kNoEdge) ++x;
  const EdgeId victim = t0.parent_edge(x);
  // First flap up front so the applied delta reports the edge's endpoints
  // (the heal flaps below re-insert exactly that edge).
  const UpdateResult first = fe.apply_update(g, GraphDelta::remove(victim));
  ASSERT_TRUE(first.changed);
  const Vertex vu = first.delta.u, vv = first.delta.v;

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t)
    readers.emplace_back([&, t] {
      std::vector<SsspRequest> reqs;
      for (Vertex r = 0; r < 8; ++r)
        reqs.push_back({static_cast<Vertex>((t * 7 + r * 5) %
                                            g.num_vertices()),
                        {}, Direction::kOut});
      while (!stop.load(std::memory_order_relaxed)) {
        const auto trees = fe.tree_batch(reqs);
        for (size_t i = 0; i < reqs.size(); ++i) {
          ASSERT_NE(trees[i], nullptr);
          ASSERT_EQ(trees[i]->root, reqs[i].root);
        }
      }
    });

  for (int flap = 1; flap < 6; ++flap) {
    const GraphDelta d = flap % 2 ? GraphDelta::insert(vu, vv)
                                  : GraphDelta::remove(victim);
    const UpdateResult res = fe.apply_update(g, d);
    ASSERT_TRUE(res.changed);
    EXPECT_EQ(fe.routed_epoch(), g.epoch());
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();

  // Settled state (edge healed by the last flap): every root bit-identical
  // to a from-scratch rebuild.
  std::vector<SsspRequest> all;
  for (Vertex r = 0; r < g.num_vertices(); ++r)
    all.push_back({r, {}, Direction::kOut});
  const auto final_trees = fe.tree_batch(all);
  for (Vertex r = 0; r < g.num_vertices(); ++r)
    expect_same_tree(*final_trees[r], pi.spt(r));
}

// N shards report into ONE registry: per-shard components are prefixed
// (shard0.server, shard1.cache, ...), the front-end adds its own `frontend`
// component, and one snapshot covers the whole fleet.
TEST(ShardAggregator, FleetReportsIntoOneRegistry) {
  Graph g = gnp_connected(40, 0.1, 57);
  const IsolationRpts pi(g, IsolationAtw(58));
  const BatchSsspEngine engine(2);
  ShardAggregator fe(pi, small_config(2, &engine));

  std::vector<SsspRequest> all;
  for (Vertex r = 0; r < g.num_vertices(); ++r)
    all.push_back({r, {}, Direction::kOut});
  fe.tree_batch(all);
  fe.tree_batch(all);  // warm pass: shard-level hits

  const obs::MetricsSnapshot snap = fe.metrics().snapshot();
  const double shard_queries = snap.value_or("shard0.server", "queries") +
                               snap.value_or("shard1.server", "queries");
  // Every routed sub-query landed on some shard's server component.
  EXPECT_EQ(static_cast<uint64_t>(shard_queries), 2 * all.size());
  EXPECT_GT(snap.value_or("frontend", "queries"), 0.0);
  EXPECT_GT(snap.value_or("frontend", "remote_hits"), 0.0);
  EXPECT_GT(snap.value_or("shard0.cache", "inserts") +
                snap.value_or("shard1.cache", "inserts"),
            0.0);
  // The per-shard split sums to the front-end's sub-query count.
  const FrontEndStats s = fe.stats();
  EXPECT_EQ(s.remote_hits + s.aggregated, s.subqueries);
}

// ---------------------------------------------------------------------------
// A zero byte budget: the cache retains nothing and the shard still answers.

// Two rounds of kThreads threads of mixed distance / fault distance /
// replacement_distance / path / batch calls against `fe`, with one
// apply_updates removing a base-tree edge in between. `batch` issues one
// multi-root tree fetch on `fe`. Every answer must equal `pi`'s from-scratch
// answer on the topology its round ran on. Returns the update's result.
template <typename FrontEnd, typename Batch>
UpdateResult expect_zero_budget_rounds(Graph& g, const IRpts& pi,
                                       FrontEnd& fe, Batch batch) {
  constexpr int kThreads = 8, kIters = 15;
  const std::vector<SsspRequest> reqs{{0, {}, Direction::kOut},
                                      {9, {}, Direction::kOut},
                                      {17, {}, Direction::kOut},
                                      {9, {}, Direction::kOut}};
  struct Query {
    Vertex s, t;
    EdgeId e;
  };
  auto query = [&](int w, int i) {
    return Query{static_cast<Vertex>((w * 5 + i * 3) % g.num_vertices()),
                 static_cast<Vertex>((w * 11 + i * 7 + 1) % g.num_vertices()),
                 static_cast<EdgeId>((w + i * 13) % g.num_edges())};
  };
  auto round = [&] {
    // From-scratch answers, computed before any serving thread starts.
    std::vector<int32_t> want(kThreads * kIters);
    std::vector<Path> want_path(kThreads * kIters);
    for (int w = 0; w < kThreads; ++w)
      for (int i = 0; i < kIters; ++i) {
        const Query q = query(w, i);
        const size_t k = static_cast<size_t>(w * kIters + i);
        want[k] = i % 5 == 0 ? pi.distance(q.s, q.t)
                             : pi.distance(q.s, q.t, FaultSet{q.e});
        want_path[k] = pi.path(q.s, q.t);
      }
    std::vector<Spt> want_trees;
    for (const SsspRequest& r : reqs) want_trees.push_back(pi.spt(r.root));

    std::atomic<int> mismatches{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w)
      workers.emplace_back([&, w] {
        for (int i = 0; i < kIters; ++i) {
          const Query q = query(w, i);
          const size_t k = static_cast<size_t>(w * kIters + i);
          bool ok = true;
          switch (i % 5) {
            case 0:
              ok = fe.distance(q.s, q.t) == want[k];
              break;
            case 1:
              ok = fe.distance(q.s, q.t, FaultSet{q.e}) == want[k];
              break;
            case 2:
              ok = fe.replacement_distance(q.s, q.t, q.e) == want[k];
              break;
            case 3:
              ok = fe.path(q.s, q.t) == want_path[k];
              break;
            default: {
              const std::vector<SptHandle> trees = batch(reqs);
              for (size_t j = 0; ok && j < reqs.size(); ++j)
                for (Vertex v = 0; ok && v < g.num_vertices(); ++v)
                  ok = trees[j]->hops(v) == want_trees[j].hops(v) &&
                       trees[j]->parent(v) == want_trees[j].parent(v);
            }
          }
          if (!ok) mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      });
    for (auto& th : workers) th.join();
    EXPECT_EQ(mismatches.load(), 0);
  };

  round();
  const Spt base = pi.spt(0);
  Vertex x = 1;
  while (base.parent_edge(x) == kNoEdge) ++x;
  const GraphDelta cut = GraphDelta::remove(base.parent_edge(x));
  const UpdateResult res =
      fe.apply_updates(g, std::span<const GraphDelta>(&cut, 1));
  EXPECT_TRUE(res.changed);
  round();
  return res;
}

TEST(OracleShard, ZeroBudgetRetainsNothingAndStillAnswers) {
  Graph g = gnp_connected(40, 0.1, 67);
  const IsolationRpts pi(g, IsolationAtw(68));
  const BatchSsspEngine engine(2);
  ServerConfig cfg;
  cfg.engine = &engine;
  cfg.cache.byte_budget = 0;
  OracleShard shard(pi, cfg);
  const UpdateResult res = expect_zero_budget_rounds(
      g, pi, shard, [&](std::span<const SsspRequest> reqs) {
        return shard.serve_batch(reqs, shard.pin_generation());
      });
  EXPECT_EQ(res.prewarmed, 0u);
  EXPECT_EQ(shard.cache()->stats().entries, 0u);
  EXPECT_GT(shard.batcher()->stats().computed, 0u);
}

TEST(ShardAggregator, ZeroBudgetRetainsNothingAndStillAnswers) {
  Graph g = gnp_connected(40, 0.1, 67);
  const IsolationRpts pi(g, IsolationAtw(68));
  const BatchSsspEngine engine(2);
  FrontEndConfig fc = small_config(2, &engine);
  fc.shard.cache.byte_budget = 0;
  ShardAggregator fe(pi, fc);
  const UpdateResult res = expect_zero_budget_rounds(
      g, pi, fe, [&](std::span<const SsspRequest> reqs) {
        return fe.tree_batch(reqs);
      });
  EXPECT_EQ(res.prewarmed, 0u);
  for (size_t k = 0; k < fe.num_shards(); ++k) {
    EXPECT_EQ(fe.shard(k).cache()->stats().entries, 0u) << "shard " << k;
    EXPECT_GT(fe.shard(k).batcher()->stats().computed, 0u) << "shard " << k;
  }
}

}  // namespace
}  // namespace restorable
