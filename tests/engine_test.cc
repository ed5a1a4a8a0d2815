// Tests for the parallel batch-SSSP engine (src/engine/): the exact layered
// sweep must be element-wise identical to the reference tiebroken_sssp
// (including under colliding ties),
// results must be in request order at every thread count, and the thread
// pool must execute every index exactly once.
#include "engine/batch_sssp.h"

#include <gtest/gtest.h>

#include <atomic>

#include "core/dijkstra.h"
#include "core/rpts.h"
#include "engine/thread_pool.h"
#include "graph/generators.h"
#include "rp/subset_rp.h"

namespace restorable {
namespace {

// A mixed request load over g: every direction, fault-free and single-fault
// roots spread over the graph.
std::vector<SsspRequest> mixed_requests(const Graph& g) {
  std::vector<SsspRequest> reqs;
  const Vertex n = g.num_vertices();
  const EdgeId m = g.num_edges();
  for (int i = 0; i < 12; ++i) {
    const Vertex root = static_cast<Vertex>((i * 7) % n);
    const Direction dir = i % 2 ? Direction::kIn : Direction::kOut;
    FaultSet faults;
    if (i % 3 == 1) faults.insert(static_cast<EdgeId>((i * 5) % m));
    if (i % 3 == 2) {
      faults.insert(static_cast<EdgeId>((i * 11) % m));
      faults.insert(static_cast<EdgeId>((i * 13 + 1) % m));
    }
    reqs.push_back({root, std::move(faults), dir});
  }
  return reqs;
}

// The engine against the reference (sequential tiebroken_sssp calls) at
// every thread width: root, direction, and per vertex hops, parent,
// parent_edge and tie all bit-identical -- the long-double policy's ties
// included, since both sides accumulate the same sums in the same order.
template <typename Policy>
void expect_batch_matches_reference(const Graph& g, const Policy& policy,
                                    const std::vector<SsspRequest>& reqs) {
  std::vector<DijkstraResult<Policy>> want;
  want.reserve(reqs.size());
  for (const SsspRequest& r : reqs)
    want.push_back(tiebroken_sssp(g, policy, r.root, r.faults, r.dir));
  for (int threads : {1, 2, 8}) {
    const BatchSsspEngine engine(threads);
    const auto got = engine.run_batch(g, policy, reqs);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " request=" +
                   std::to_string(i) + " faults=" +
                   std::to_string(reqs[i].faults.size()) + " dir=" +
                   (reqs[i].dir == Direction::kOut ? "out" : "in"));
      const Spt& a = got[i].spt;
      const Spt& b = want[i].spt;
      EXPECT_EQ(a.root, b.root);
      EXPECT_EQ(a.dir, b.dir);
      ASSERT_EQ(a.num_vertices(), b.num_vertices());
      ASSERT_EQ(got[i].tie.size(), want[i].tie.size());
      size_t mismatches = 0;
      Vertex first = kNoVertex;
      for (Vertex v = 0; v < b.num_vertices(); ++v) {
        if (a.hops(v) == b.hops(v) && a.parent(v) == b.parent(v) &&
            a.parent_edge(v) == b.parent_edge(v) &&
            got[i].tie[v] == want[i].tie[v])
          continue;
        if (mismatches++ == 0) first = v;
      }
      EXPECT_EQ(mismatches, 0u) << "first mismatch at vertex " << first;
    }
  }
}

TEST(BatchSsspEngine, MatchesReferenceIsolationPolicy) {
  for (uint64_t seed : {1u, 2u}) {
    const Graph g = gnp_connected(60, 0.08, seed);
    expect_batch_matches_reference(g, IsolationAtw(seed + 10),
                                   mixed_requests(g));
  }
  const Graph t = torus(6, 6);
  expect_batch_matches_reference(t, IsolationAtw(3), mixed_requests(t));
  // Bridges: faults that disconnect exercise the unreachable paths.
  const Graph d = dumbbell(8, 3);
  expect_batch_matches_reference(d, IsolationAtw(4), mixed_requests(d));
}

TEST(BatchSsspEngine, MatchesReferenceDeterministicPolicy) {
  const Graph g = gnp_connected(40, 0.1, 5);
  expect_batch_matches_reference(g, DeterministicAtw(g), mixed_requests(g));
  const Graph t = theta_graph(4, 4);
  expect_batch_matches_reference(t, DeterministicAtw(t), mixed_requests(t));
}

TEST(BatchSsspEngine, MatchesReferenceRandomRealPolicy) {
  const Graph g = gnp_connected(50, 0.09, 6);
  expect_batch_matches_reference(g, RandomRealAtw(7, g.num_vertices()),
                                 mixed_requests(g));
}

// Requests whose faults cut the fault-free tree: fault j is the parent edge
// of a vertex a third of the vertex range further on, so every faulted tree
// differs from its base (and on a dumbbell, whose bridge path holds most
// vertex ids, the fault usually disconnects the graph).
template <typename Policy>
std::vector<SsspRequest> tree_fault_requests(const Graph& g,
                                             const Policy& policy) {
  const Vertex n = g.num_vertices();
  std::vector<SsspRequest> reqs;
  for (const Vertex root : {Vertex{0}, n / 2 + 1}) {
    for (const Direction dir : {Direction::kOut, Direction::kIn}) {
      const Spt base = tiebroken_sssp(g, policy, root, {}, dir).spt;
      for (Vertex k = 0; k <= 2; ++k) {
        FaultSet faults;
        for (Vertex j = 1; j <= k; ++j) {
          Vertex v = (root + j * n / 3) % n;
          while (base.parent_edge(v) == kNoEdge) v = (v + 1) % n;
          faults.insert(base.parent_edge(v));
        }
        reqs.push_back({root, std::move(faults), dir});
      }
    }
  }
  return reqs;
}

// Graphs of >= 2 000 vertices: sparse, random and bridged (dumbbell(40,
// 1930) has 2 009 vertices, 1 929 of them on the bridge path).
std::vector<Graph> layered_test_graphs() {
  std::vector<Graph> gs;
  gs.push_back(sparse_connected(2000, 3, 51));
  gs.push_back(gnp_connected(2000, 8.0 / 2000, 52));
  gs.push_back(dumbbell(40, 1930));
  return gs;
}

// The exact layered path at scale: every ATW policy, with tree faults.
template <typename Policy>
void expect_layered_matches_reference(const Graph& g, const Policy& policy) {
  expect_batch_matches_reference(g, policy, tree_fault_requests(g, policy));
}

TEST(LayeredEngine, MatchesReferenceAtScaleAllPolicies) {
  uint64_t seed = 60;
  for (const Graph& g : layered_test_graphs()) {
    SCOPED_TRACE("n=" + std::to_string(g.num_vertices()));
    expect_layered_matches_reference(g, IsolationAtw(++seed));
    expect_layered_matches_reference(g,
                                     RandomRealAtw(++seed, g.num_vertices()));
    expect_layered_matches_reference(g, DeterministicAtw(g));
  }
}

TEST(LayeredEngine, EqualTiesResolveToTheReferenceParent) {
  // W = 0 makes every tie zero and W = 1 draws from {-1, 0, 1}: most
  // vertices with two tight in-arcs see equal candidates, so parents come
  // from the equal-tie rule rather than the sweep's strict comparison.
  uint64_t seed = 70;
  for (const Graph& g : layered_test_graphs()) {
    SCOPED_TRACE("n=" + std::to_string(g.num_vertices()));
    for (const int64_t w : {int64_t{0}, int64_t{1}})
      expect_layered_matches_reference(g, IsolationAtw(++seed, w));
  }
}

TEST(BatchSsspEngine, WorkspaceSurvivesGraphSwitches) {
  // One engine, alternating graphs of different sizes: the per-thread
  // workspaces must resize and reset correctly between runs. Every fourth
  // request asks for the (1+eps) tier, which must come back as the same
  // exact tree off the same workspaces.
  const Graph a = gnp_connected(80, 0.06, 11);
  const Graph b = cycle(9);
  const IsolationAtw pol(12);
  const BatchSsspEngine engine(2);
  for (int round = 0; round < 3; ++round) {
    const Graph& g = round % 2 ? b : a;
    auto reqs = mixed_requests(g);
    for (size_t i = 3; i < reqs.size(); i += 4)
      reqs[i].eps_q = quantize_epsilon(0.5);
    const auto got = engine.run_batch(g, pol, reqs);
    for (size_t i = 0; i < reqs.size(); ++i) {
      const auto want =
          tiebroken_sssp(g, pol, reqs[i].root, reqs[i].faults, reqs[i].dir);
      for (Vertex v = 0; v < want.spt.num_vertices(); ++v) {
        EXPECT_EQ(got[i].spt.hops(v), want.spt.hops(v));
        EXPECT_EQ(got[i].spt.parent(v), want.spt.parent(v));
      }
      EXPECT_EQ(got[i].tie, want.tie);
    }
  }
}

TEST(BatchSsspEngine, EmptyBatch) {
  const Graph g = cycle(5);
  const BatchSsspEngine engine(4);
  EXPECT_TRUE(engine.run_batch(g, IsolationAtw(1), {}).empty());
}

TEST(SptBatch, RptsOverrideMatchesSequentialSpt) {
  const Graph g = gnp_connected(45, 0.1, 21);
  const IsolationRpts pi(g, IsolationAtw(22));
  const auto reqs = mixed_requests(g);
  const BatchSsspEngine engine(2);
  const auto got = pi.spt_batch(reqs, &engine);
  ASSERT_EQ(got.size(), reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    const Spt want = pi.spt(reqs[i].root, reqs[i].faults, reqs[i].dir);
    for (Vertex v = 0; v < want.num_vertices(); ++v) {
      EXPECT_EQ(got[i]->hops(v), want.hops(v));
      EXPECT_EQ(got[i]->parent(v), want.parent(v));
      EXPECT_EQ(got[i]->parent_edge(v), want.parent_edge(v));
    }
  }
}

TEST(SptBatch, DefaultImplementationCoversArbitraryRpts) {
  // ArbitraryRpts has no policy, so it exercises IRpts' generic fan-out.
  const Graph g = gnp_connected(30, 0.12, 31);
  const ArbitraryRpts pi(g);
  const auto reqs = mixed_requests(g);
  const BatchSsspEngine engine(4);
  const auto got = pi.spt_batch(reqs, &engine);
  ASSERT_EQ(got.size(), reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    const Spt want = pi.spt(reqs[i].root, reqs[i].faults, reqs[i].dir);
    for (Vertex v = 0; v < want.num_vertices(); ++v) {
      EXPECT_EQ(got[i]->hops(v), want.hops(v));
      EXPECT_EQ(got[i]->parent(v), want.parent(v));
    }
  }
}

TEST(ThreadPool, EveryIndexExactlyOnce) {
  const ThreadPool pool(4);
  constexpr size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  const ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(8, [&](size_t i) {
    pool.parallel_for(8, [&](size_t j) {
      hits[i * 8 + j].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (size_t k = 0; k < hits.size(); ++k) EXPECT_EQ(hits[k].load(), 1);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  const ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> sum{0};
    pool.parallel_for(100, [&](size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

// End-to-end: the heavy consumers must produce thread-count-independent
// results when handed engines of different widths.
TEST(BatchSsspEngine, ConsumersAreThreadCountInvariant) {
  const Graph g = gnp_connected(70, 0.07, 41);
  const IsolationRpts pi(g, IsolationAtw(42));
  const std::vector<Vertex> sources{0, 13, 27, 44, 61};

  const BatchSsspEngine e1(1), e2(2), e8(8);
  const auto r1 = subset_replacement_paths(pi, sources, &e1);
  const auto r2 = subset_replacement_paths(pi, sources, &e2);
  const auto r8 = subset_replacement_paths(pi, sources, &e8);
  ASSERT_EQ(r1.pairs.size(), r2.pairs.size());
  ASSERT_EQ(r1.pairs.size(), r8.pairs.size());
  for (size_t p = 0; p < r1.pairs.size(); ++p) {
    EXPECT_EQ(r1.pairs[p].base_path, r2.pairs[p].base_path);
    EXPECT_EQ(r1.pairs[p].base_path, r8.pairs[p].base_path);
    EXPECT_EQ(r1.pairs[p].replacement, r2.pairs[p].replacement);
    EXPECT_EQ(r1.pairs[p].replacement, r8.pairs[p].replacement);
  }
  EXPECT_EQ(r1.tree_edges_total, r8.tree_edges_total);
  EXPECT_EQ(r1.union_graph_edges_total, r8.union_graph_edges_total);
}

}  // namespace
}  // namespace restorable
