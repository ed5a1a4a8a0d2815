// Dual-form Spt: the compact (publication) form must answer every read
// bit-identically to the fat (construction) form, memory_bytes() must be
// exact for both, and the serving cache's compact_trees knob must halve the
// resident bytes per tree (the ISSUE's >= 40% target) without changing a
// single answer.
#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/dijkstra.h"
#include "core/rpts.h"
#include "engine/batch_sssp.h"
#include "graph/generators.h"
#include "serve/spt_cache.h"

namespace restorable {
namespace {

void expect_same_answers(const Spt& a, const Spt& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  EXPECT_EQ(a.root, b.root);
  EXPECT_EQ(a.dir, b.dir);
  for (Vertex v = 0; v < a.num_vertices(); ++v) {
    EXPECT_EQ(a.hops(v), b.hops(v)) << "v=" << v;
    EXPECT_EQ(a.parent(v), b.parent(v)) << "v=" << v;
    EXPECT_EQ(a.parent_edge(v), b.parent_edge(v)) << "v=" << v;
    EXPECT_EQ(a.reachable(v), b.reachable(v)) << "v=" << v;
  }
}

std::vector<SsspRequest> mixed_requests(const Graph& g) {
  std::vector<SsspRequest> reqs;
  for (Vertex r = 0; r < g.num_vertices(); r += 3) {
    reqs.push_back({r, {}, Direction::kOut});
    reqs.push_back({r, FaultSet{static_cast<EdgeId>(r % g.num_edges())},
                    Direction::kIn});
  }
  return reqs;
}

TEST(CompactSpt, CompactAnswersBitIdenticalToFat) {
  const Graph g = gnp_connected(60, 0.08, 7);
  const IsolationRpts pi(g, IsolationAtw(3));
  for (Vertex root : {Vertex{0}, Vertex{17}, Vertex{59}}) {
    Spt fat = pi.spt(root, FaultSet{static_cast<EdgeId>(root % 5)});
    Spt compacted = fat;  // engine attaches endpoints at build time
    ASSERT_TRUE(compacted.compact());
    ASSERT_TRUE(compacted.is_compact());
    ASSERT_FALSE(fat.is_compact());
    expect_same_answers(compacted, fat);
    // Derived structures too, not just the per-vertex accessors.
    for (Vertex v = 0; v < g.num_vertices(); v += 7)
      EXPECT_EQ(compacted.path_to(v), fat.path_to(v));
    EXPECT_EQ(compacted.tree_edges(), fat.tree_edges());
    EXPECT_EQ(compacted.top_order(), fat.top_order());
    for (EdgeId e = 0; e < g.num_edges(); e += 3) {
      EXPECT_EQ(compacted.uses_edge(e), fat.uses_edge(e));
      EXPECT_EQ(compacted.paths_using_edge(e), fat.paths_using_edge(e));
    }
  }
}

TEST(CompactSpt, TopOrderSortsByHopsThenIdInBothForms) {
  // A faulted tree on a sparse graph leaves part of it unreachable, so the
  // order must also drop vertices; the hand-built tree's labels reach n and
  // exercise the comparator fallback.
  const Graph g = gnp_connected(80, 0.04, 19);
  const IsolationRpts pi(g, IsolationAtw(4));
  Spt hand;
  hand.reset(4);
  hand.mutable_hops() = {0, 9, kUnreachable, 9};
  std::vector<Spt> trees{pi.spt(0, {}), hand};
  for (EdgeId e = 0; e < g.num_edges(); e += 11)
    trees.push_back(pi.spt(5, {e}));
  for (const Spt& fat : trees) {
    const std::vector<Vertex> order = fat.top_order();
    std::vector<Vertex> reachable;
    for (Vertex v = 0; v < fat.num_vertices(); ++v)
      if (fat.reachable(v)) reachable.push_back(v);
    std::vector<Vertex> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, reachable);
    for (size_t i = 1; i < order.size(); ++i) {
      const auto prev = std::pair(fat.hops(order[i - 1]), order[i - 1]);
      EXPECT_LT(prev, std::pair(fat.hops(order[i]), order[i])) << "i=" << i;
    }
    Spt compacted = fat;
    if (compacted.compact()) {
      EXPECT_EQ(compacted.top_order(), order);
    }
  }
  EXPECT_EQ(hand.top_order(), (std::vector<Vertex>{0, 1, 3}));
}

TEST(CompactSpt, ThawedRoundTripsExactly) {
  const Graph g = gnp_connected(40, 0.1, 11);
  const IsolationRpts pi(g, IsolationAtw(5));
  Spt fat = pi.spt(4);
  Spt compacted = fat;
  ASSERT_TRUE(compacted.compact());
  const Spt thawed = compacted.thawed();
  ASSERT_FALSE(thawed.is_compact());
  expect_same_answers(thawed, fat);
  // Thawing a fat tree is a plain copy.
  expect_same_answers(fat.thawed(), fat);
}

TEST(CompactSpt, CompactDeclinesWithoutEndpointsOrPastU16Hops) {
  // Hand-rolled tree, no endpoint table: compact() must refuse (the parent
  // array cannot be derived) and leave the tree untouched.
  Spt bare;
  bare.root = 0;
  bare.reset(4);
  bare.mutable_hops()[0] = 0;
  EXPECT_FALSE(bare.compact());
  EXPECT_FALSE(bare.is_compact());

  // A >= 65535-hop path cannot store its hop counts in u16: compact() must
  // decline rather than truncate, and the fat tree keeps serving.
  const Graph line = path_graph(70000);
  const auto res = tiebroken_sssp(line, IsolationAtw(1), 0, {},
                                  Direction::kOut);
  Spt deep = res.spt;
  ASSERT_EQ(deep.hops(69999), 69999);
  EXPECT_FALSE(deep.compact());
  EXPECT_FALSE(deep.is_compact());
  EXPECT_EQ(deep.hops(69999), 69999);
}

TEST(CompactSpt, CompactDeclinesOnParentEdgeBeyondEndpointTable) {
  // Defensive guard behind the repair-path fix: a tree carrying parent-edge
  // ids its attached endpoint table cannot describe (a stale, shorter table
  // from before a fresh-slot append) must stay fat -- deriving parent(v)
  // from such a table would read the endpoint vector out of bounds.
  Spt t;
  t.root = 0;
  t.reset(2);
  t.mutable_hops()[0] = 0;
  t.mutable_hops()[1] = 1;
  t.mutable_parent()[1] = 0;
  t.mutable_parent_edge()[1] = 3;  // beyond the 1-entry table below
  t.attach_endpoints(
      std::make_shared<const std::vector<Edge>>(std::vector<Edge>{{0, 1}}));
  EXPECT_FALSE(t.compact());
  EXPECT_FALSE(t.is_compact());
  EXPECT_FALSE(t.compacted().is_compact());
  EXPECT_EQ(t.hops(1), 1);  // declined conversions leave the tree untouched
  // With an id the table does cover, compaction proceeds normally.
  t.mutable_parent_edge()[1] = 0;
  ASSERT_TRUE(t.compact());
  EXPECT_EQ(t.parent(1), 0u);
}

TEST(CompactSpt, MemoryBytesExactForBothForms) {
  // Freshly built fat tree: three n-sized arrays (12 bytes/vertex) whose
  // capacity equals their size, so the accounting is pinned exactly.
  const Graph g = gnp_connected(128, 0.05, 9);
  const IsolationRpts pi(g, IsolationAtw(2));
  Spt fat = pi.spt(0);
  const size_t n = g.num_vertices();
  EXPECT_EQ(fat.memory_bytes(), sizeof(Spt) + n * 12);

  // Compact form on a connected graph: truncation keeps all n vertices but
  // drops to 6 bytes each (u16 hops + u32 parent_edge, no parent array),
  // and the fat arrays must be released -- a >= 40% cut guaranteed.
  Spt compacted = fat;
  ASSERT_TRUE(compacted.compact());
  EXPECT_EQ(compacted.memory_bytes(), sizeof(Spt) + n * 6);
  EXPECT_LE(compacted.memory_bytes() - sizeof(Spt),
            (fat.memory_bytes() - sizeof(Spt)) * 6 / 10);
}

TEST(CompactSpt, MemoryBytesCountsCapacityNotSize) {
  // Regression for the capacity-vs-size undercount: re-initializing to a
  // smaller n keeps the larger capacity reserved, and memory_bytes() must
  // charge the reserved bytes (that is what the cache budget actually pays).
  Spt t;
  t.reset(1000);
  const size_t big = t.memory_bytes();
  EXPECT_GE(big, sizeof(Spt) + 1000 * 12);
  t.reset(10);
  EXPECT_EQ(t.memory_bytes(), big);  // slack still reserved, still charged
}

TEST(CompactSpt, CacheCompactionPreservesAnswersAcrossPoliciesAndThreads) {
  const Graph g = gnp_connected(48, 0.1, 13);
  const auto reqs = mixed_requests(g);
  auto check = [&](const IRpts& pi) {
    for (int threads : {1, 2, 8}) {
      const BatchSsspEngine eng(threads);
      // Reference: uncached (always fat) batch.
      const auto fat = pi.spt_batch(reqs, &eng);
      // Compacting cache: same requests, compact trees published.
      SptCache cache({.shards = 4, .compact_trees = true});
      const auto compacted = pi.spt_batch(reqs, &eng, &cache);
      ASSERT_EQ(fat.size(), compacted.size());
      for (size_t i = 0; i < fat.size(); ++i) {
        EXPECT_TRUE(compacted[i]->is_compact());
        expect_same_answers(*compacted[i], *fat[i]);
      }
      // Second pass hits the cache: identical handles, still compact.
      const auto again = pi.spt_batch(reqs, &eng, &cache);
      for (size_t i = 0; i < again.size(); ++i)
        EXPECT_EQ(again[i], compacted[i]);
    }
  };
  check(IsolationRpts(g, IsolationAtw(21)));
  check(RandomRealRpts(g, RandomRealAtw(22, g.num_vertices())));
  check(DeterministicRpts(g, DeterministicAtw(g)));
}

TEST(CompactSpt, CompactCacheHoldsMoreTreesAtFixedBudget) {
  const Graph g = gnp_connected(256, 0.03, 17);
  const IsolationRpts pi(g, IsolationAtw(8));
  std::vector<SsspRequest> reqs;
  for (Vertex r = 0; r < g.num_vertices(); ++r)
    reqs.push_back({r, {}, Direction::kOut});
  const BatchSsspEngine eng(2);
  // A budget sized to hold only some of the fat trees: the compact cache
  // must retain strictly more at the same budget.
  SptCache::Config cfg{.shards = 1, .byte_budget = 64 * 1024,
                       .protected_fraction = 1.0};
  SptCache fat_cache(cfg);
  cfg.compact_trees = true;
  SptCache compact_cache(cfg);
  (void)pi.spt_batch(reqs, &eng, &fat_cache);
  (void)pi.spt_batch(reqs, &eng, &compact_cache);
  const auto fat_stats = fat_cache.stats();
  const auto compact_stats = compact_cache.stats();
  ASSERT_GT(fat_stats.entries, 0u);
  EXPECT_GT(compact_stats.entries, fat_stats.entries);
  EXPECT_GE(compact_stats.entries, fat_stats.entries * 3 / 2);
}

}  // namespace
}  // namespace restorable
