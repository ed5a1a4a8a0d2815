// Tests for the dual-failure subset oracle: exhaustive cross-validation
// against per-fault-pair BFS (the 2-restorability guarantee, Definition 17,
// exercised through a data structure).
#include "rp/two_fault_oracle.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <stdexcept>

#include "graph/bfs.h"
#include "graph/generators.h"
#include "util/random.h"

// Global allocation counter for QueryDoesNotAllocate: counts operator new
// calls while armed. Every replaceable non-aligned form is replaced, so all
// of them pair malloc with free (sanitizer builds check the pairing).
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<size_t> g_allocs{0};

void* counted_malloc(std::size_t size) noexcept {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
// GCC pairs the replaced operator new with its own delete and flags the
// free() below as mismatched; the pairing here is malloc/free throughout.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace restorable {
namespace {

void exhaustive_check(const Graph& g, uint64_t seed,
                      std::span<const Vertex> sources) {
  IsolationRpts pi(g, IsolationAtw(seed));
  const TwoFaultSubsetOracle oracle(pi, sources);
  for (Vertex s1 : sources) {
    for (Vertex s2 : sources) {
      if (s1 >= s2) continue;
      // |F| = 0 and 1.
      EXPECT_EQ(oracle.query(s1, s2, FaultSet{}), bfs_distance(g, s1, s2));
      for (EdgeId e = 0; e < g.num_edges(); ++e)
        EXPECT_EQ(oracle.query(s1, s2, FaultSet{e}),
                  bfs_distance(g, s1, s2, FaultSet{e}))
            << s1 << "," << s2 << " e=" << e;
      // |F| = 2, all pairs.
      for (EdgeId e1 = 0; e1 < g.num_edges(); ++e1)
        for (EdgeId e2 = e1 + 1; e2 < g.num_edges(); ++e2) {
          const FaultSet f{e1, e2};
          EXPECT_EQ(oracle.query(s1, s2, f), bfs_distance(g, s1, s2, f))
              << s1 << "," << s2 << " F=" << f.to_string();
        }
    }
  }
}

TEST(TwoFaultOracle, ExhaustiveOnGnp) {
  Graph g = gnp_connected(10, 0.35, 1);
  const Vertex sources[] = {0, 4, 9};
  exhaustive_check(g, 11, sources);
}

TEST(TwoFaultOracle, ExhaustiveOnTheta) {
  Graph g = theta_graph(3, 3);
  const Vertex sources[] = {0, 1};
  exhaustive_check(g, 12, sources);
}

TEST(TwoFaultOracle, ExhaustiveOnGrid) {
  Graph g = grid(3, 3);
  const Vertex sources[] = {0, 8};
  exhaustive_check(g, 13, sources);
}

TEST(TwoFaultOracle, ExhaustiveOnClique) {
  Graph g = complete(6);
  const Vertex sources[] = {0, 3, 5};
  exhaustive_check(g, 14, sources);
}

TEST(TwoFaultOracle, DisconnectionCases) {
  Graph g = path_graph(5);
  IsolationRpts pi(g, IsolationAtw(15));
  const Vertex sources[] = {0, 4};
  const TwoFaultSubsetOracle oracle(pi, sources);
  EXPECT_EQ(oracle.query(0, 4, FaultSet{2}), kUnreachable);
  EXPECT_EQ(oracle.query(0, 4, FaultSet{0, 3}), kUnreachable);
  EXPECT_EQ(oracle.query(0, 4, FaultSet{}), 4);
}

TEST(TwoFaultOracle, UnknownSourceRejected) {
  Graph g = cycle(5);
  IsolationRpts pi(g, IsolationAtw(16));
  const Vertex sources[] = {0, 2};
  const TwoFaultSubsetOracle oracle(pi, sources);
  EXPECT_EQ(oracle.query(0, 3, FaultSet{}), kUnreachable);  // 3 not in S
  EXPECT_EQ(oracle.query(2, 2, FaultSet{0, 1}), 0);
}

TEST(TwoFaultOracle, SourceOutOfRangeRejected) {
  Graph g = cycle(5);
  IsolationRpts pi(g, IsolationAtw(16));
  const Vertex sources[] = {0, 5};
  EXPECT_THROW(TwoFaultSubsetOracle(pi, sources), std::invalid_argument);
}

TEST(TwoFaultOracle, TreeAccounting) {
  Graph g = gnp_connected(12, 0.3, 17);
  IsolationRpts pi(g, IsolationAtw(18));
  const Vertex sources[] = {0, 6};
  const TwoFaultSubsetOracle oracle(pi, sources);
  // Per source: 1 base + (n-1) single-fault trees.
  EXPECT_EQ(oracle.trees_stored(), 2u * (1 + (g.num_vertices() - 1)));
}

TEST(TwoFaultOracle, EdgeIdsBeyondGraphAreIgnored) {
  Graph g = gnp_connected(12, 0.3, 19);
  IsolationRpts pi(g, IsolationAtw(20));
  const Vertex sources[] = {0, 5, 11};
  const TwoFaultSubsetOracle oracle(pi, sources);
  const EdgeId m = g.num_edges();
  for (Vertex s2 : {5u, 11u}) {
    EXPECT_EQ(oracle.query(0, s2, FaultSet{m}), bfs_distance(g, 0, s2));
    EXPECT_EQ(oracle.query(0, s2, FaultSet{m, m + 7}), bfs_distance(g, 0, s2));
    EXPECT_EQ(oracle.query(0, s2, FaultSet{kNoEdge}), bfs_distance(g, 0, s2));
    for (EdgeId e = 0; e < m; ++e)
      EXPECT_EQ(oracle.query(0, s2, FaultSet{e, m + 1}),
                bfs_distance(g, 0, s2, FaultSet{e}))
          << "e=" << e;
  }
}

TEST(TwoFaultOracle, ThreeFaultsThrow) {
  Graph g = cycle(6);
  IsolationRpts pi(g, IsolationAtw(21));
  const Vertex sources[] = {0, 3};
  const TwoFaultSubsetOracle oracle(pi, sources);
  EXPECT_THROW(oracle.query(0, 3, FaultSet{0, 1, 2}), std::invalid_argument);
  EXPECT_THROW(oracle.query(0, 0, FaultSet{0, 1, 2}), std::invalid_argument);
  EXPECT_NO_THROW(oracle.query(0, 3, FaultSet{0, 1}));
}

// Seeded differential test against BFS on G \ F. Fault sets come from the
// shapes the query treats differently: none, single, two off-tree faults,
// two faults nested on one root path, two faults at a root, and the faults
// around a low-degree source (disconnecting when its degree is <= 2).
void differential_check(const Graph& g, uint64_t seed,
                        std::span<const Vertex> sources) {
  IsolationRpts pi(g, IsolationAtw(seed));
  const TwoFaultSubsetOracle oracle(pi, sources);
  Rng rng(seed);
  const auto pick = [&](const std::vector<EdgeId>& v) {
    return v[rng.next_below(v.size())];
  };
  size_t disconnected = 0;
  const auto check = [&](Vertex s1, Vertex s2, const FaultSet& f,
                         const char* shape) {
    const int32_t truth = bfs_distance(g, s1, s2, f);
    if (truth == kUnreachable) ++disconnected;
    EXPECT_EQ(oracle.query(s1, s2, f), truth)
        << shape << ": " << s1 << "," << s2 << " F=" << f.to_string();
  };
  const auto root_edges = [](const Spt& t) {
    std::vector<EdgeId> out;
    for (Vertex v = 0; v < t.num_vertices(); ++v)
      if (t.hops(v) == 1) out.push_back(t.parent_edge(v));
    return out;
  };

  for (Vertex s1 : sources) {
    for (Vertex s2 : sources) {
      if (s1 == s2) continue;
      const Spt t1 = pi.spt(s1, {});
      const Spt t2 = pi.spt(s2, {});
      check(s1, s2, FaultSet{}, "none");
      for (EdgeId e : t1.path_to(s2).edges)
        check(s1, s2, FaultSet{e}, "single");

      std::vector<EdgeId> off;
      for (EdgeId e = 0; e < g.num_edges(); ++e)
        if (!t1.uses_edge(e) && !t2.uses_edge(e)) off.push_back(e);
      for (int r = 0; r < 4 && off.size() >= 2; ++r) {
        const EdgeId a = pick(off), b = pick(off);
        check(s1, s2, FaultSet{a}, "off-tree single");
        if (a != b) check(s1, s2, FaultSet{a, b}, "off-tree pair");
      }

      for (const Spt* t : {&t1, &t2}) {
        for (int r = 0; r < 6; ++r) {
          const Vertex x = r == 0 ? (t == &t1 ? s2 : s1)
                                  : static_cast<Vertex>(
                                        rng.next_below(g.num_vertices()));
          // Tree edges on the root path to x, root side first.
          const std::vector<EdgeId> p = t->path_to(x).edges;
          if (p.size() < 2) continue;
          const size_t i = rng.next_below(p.size() - 1);
          const size_t j = i + 1 + rng.next_below(p.size() - 1 - i);
          check(s1, s2, FaultSet{p[i], p[j]}, "nested");
        }
        const std::vector<EdgeId> at_root = root_edges(*t);
        for (size_t i = 0; i < at_root.size(); ++i) {
          check(s1, s2, FaultSet{at_root[i]}, "root single");
          for (size_t j = i + 1; j < at_root.size() && j < i + 3; ++j)
            check(s1, s2, FaultSet{at_root[i], at_root[j]}, "root pair");
        }
      }

      for (Vertex s : {s1, s2}) {
        const auto arcs = g.arcs(s);
        if (arcs.size() >= 2)
          check(s1, s2, FaultSet{arcs[0].edge, arcs[1].edge}, "around source");
        else if (arcs.size() == 1)
          check(s1, s2,
                FaultSet{arcs[0].edge, (arcs[0].edge + 1) % g.num_edges()},
                "around source");
      }
    }
  }
  EXPECT_GT(disconnected, 0u) << "no disconnecting fault set was exercised";
}

// The sources of a differential run: spread-out vertices plus the two of
// lowest degree, whose incident faults disconnect them.
std::vector<Vertex> differential_sources(const Graph& g, size_t spread) {
  std::vector<Vertex> by_degree(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) by_degree[v] = v;
  std::stable_sort(by_degree.begin(), by_degree.end(), [&](Vertex a, Vertex b) {
    return g.degree(a) < g.degree(b);
  });
  std::vector<Vertex> out(by_degree.begin(), by_degree.begin() + 2);
  for (size_t i = 0; i < spread; ++i) {
    const Vertex v = static_cast<Vertex>((2 * i + 1) * g.num_vertices() /
                                         (2 * spread));
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  return out;
}

TEST(TwoFaultOracle, DifferentialOnGnp150) {
  const Graph g = gnp_connected(150, 0.03, 23);
  differential_check(g, 24, differential_sources(g, 4));
}

TEST(TwoFaultOracle, DifferentialOnGrid8x8) {
  const Graph g = grid(8, 8);
  differential_check(g, 25, differential_sources(g, 3));
}

TEST(TwoFaultOracle, DifferentialOnPath40) {
  const Graph g = path_graph(40);
  differential_check(g, 26, differential_sources(g, 3));
}

TEST(TwoFaultOracle, QueryDoesNotAllocate) {
  const Graph g = gnp_connected(60, 0.08, 27);
  IsolationRpts pi(g, IsolationAtw(28));
  const Vertex sources[] = {0, 20, 40, 59};
  const TwoFaultSubsetOracle oracle(pi, sources);
  std::vector<FaultSet> fault_sets{FaultSet{}};
  for (EdgeId e = 0; e + 3 < g.num_edges(); e += 5) {
    fault_sets.push_back(FaultSet{e});
    fault_sets.push_back(FaultSet{e, e + 3});
  }
  int64_t sink = 0;
  g_allocs.store(0);
  g_count_allocs.store(true);
  for (const FaultSet& f : fault_sets)
    for (Vertex s1 : sources)
      for (Vertex s2 : sources) sink += oracle.query(s1, s2, f);
  g_count_allocs.store(false);
  EXPECT_EQ(g_allocs.load(), 0u);
  EXPECT_NE(sink, 0);
}

}  // namespace
}  // namespace restorable
