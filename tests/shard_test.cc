// Tests for the sharded serving tier (src/serve/shard_router.h,
// shard_aggregator.h): consistent-hash stability under fleet growth,
// bit-identical answers at every shard count, exact per-shard submission
// counts from the group-by-shard rule,
// epoch-coherent update fan-out with pinned readers surviving it, and the
// compact-aware repair fast path staying bit-identical to the
// thaw-repair-compact round-trip it replaces.
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

}  // namespace
}  // namespace restorable
