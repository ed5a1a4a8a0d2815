// Tests for the approximate (1+eps) tier: fresh approximate trees, the
// eps-slack survival/repair rules (invariant F, core/rpts.h), the eps-keyed
// cache identity, and the OracleServer escalation rules.
//
// The load-bearing properties:
//  * a fresh approximate tree is the exact tree: eps_q only keys the cache
//    entry and selects the survival and repair rules, so every request, at
//    any eps, is BIT-IDENTICAL to the exact engine at every thread count and
//    under every tiebreaking policy.
//  * every approximate label, fresh or carried through churn, is
//    sandwiched: d_true <= hops <= (1+eps)^d_true * d_true, with
//    reachability preserved exactly.
#include "core/rpts.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/dijkstra.h"
#include "engine/batch_sssp.h"
#include "graph/generators.h"
#include "serve/oracle_server.h"
#include "serve/spt_cache.h"

namespace restorable {
namespace {

double stretch_bound(double eps, int32_t d_true) {
  return std::pow(1.0 + eps, static_cast<double>(d_true)) *
         static_cast<double>(d_true);
}

// Asserts the user-facing contract of an approximate tree against the exact
// hop distances (the exact tree's hops ARE d_true: distances are hop counts).
void expect_within_stretch(const Spt& approx, const Spt& exact,
                           uint32_t eps_q) {
  const double eps = dequantize_epsilon(eps_q);
  ASSERT_EQ(approx.num_vertices(), exact.num_vertices());
  for (Vertex v = 0; v < approx.num_vertices(); ++v) {
    if (exact.hops(v) == kUnreachable) {
      EXPECT_EQ(approx.hops(v), kUnreachable) << "v=" << v;
      continue;
    }
    ASSERT_NE(approx.hops(v), kUnreachable) << "v=" << v;
    EXPECT_GE(approx.hops(v), exact.hops(v)) << "v=" << v;
    EXPECT_LE(static_cast<double>(approx.hops(v)),
              stretch_bound(eps, exact.hops(v)) + 1e-9)
        << "v=" << v << " d_true=" << exact.hops(v);
  }
}

// Structural sanity of an approximate tree: every finite non-root label has
// a parent chain with strictly descending hops over present non-fault edges
// (invariant F1 -- what path_to / top_order rely on).
void expect_realizable(const Graph& g, const Spt& tree,
                       const FaultSet& faults) {
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (tree.hops(v) == kUnreachable || v == tree.root) continue;
    const Vertex p = tree.parent(v);
    const EdgeId pe = tree.parent_edge(v);
    ASSERT_NE(p, kNoVertex) << "v=" << v;
    ASSERT_NE(pe, kNoEdge) << "v=" << v;
    EXPECT_TRUE(g.edge_present(pe)) << "v=" << v;
    EXPECT_FALSE(faults.contains(pe)) << "v=" << v;
    const Edge& e = g.endpoints(pe);
    EXPECT_TRUE((e.u == p && e.v == v) || (e.v == p && e.u == v));
    EXPECT_LT(tree.hops(p), tree.hops(v)) << "v=" << v;
  }
  EXPECT_EQ(tree.hops(tree.root), 0);
}

TEST(EpsilonQuantization, FloorsAndCaps) {
  EXPECT_EQ(quantize_epsilon(0.0), 0u);
  EXPECT_EQ(quantize_epsilon(-1.0), 0u);
  // Floor-quantization: the effective epsilon never exceeds the request, so
  // the promised (1+eps)^d bound is valid verbatim.
  EXPECT_LE(dequantize_epsilon(quantize_epsilon(0.1)), 0.1);
  EXPECT_LE(dequantize_epsilon(quantize_epsilon(0.37)), 0.37);
  EXPECT_EQ(quantize_epsilon(1.0), kEpsilonDenom);
  EXPECT_EQ(quantize_epsilon(1e9), 16 * kEpsilonDenom);  // cap
  // Sub-quantum epsilons collapse to exact.
  EXPECT_EQ(quantize_epsilon(1.0 / (4.0 * kEpsilonDenom)), 0u);
}

TEST(EpsilonImproves, ExactReducesToStrictLess) {
  EXPECT_TRUE(epsilon_improves(kUnreachable, 5, 0));
  EXPECT_TRUE(epsilon_improves(6, 5, 0));
  EXPECT_FALSE(epsilon_improves(5, 5, 0));
  EXPECT_FALSE(epsilon_improves(5, 6, 0));
  // With slack: 10 vs 9 at eps = 0.25 is NOT an improvement (10 <= 1.25*9).
  const uint32_t q = quantize_epsilon(0.25);
  EXPECT_FALSE(epsilon_improves(10, 9, q));
  EXPECT_TRUE(epsilon_improves(10, 7, q));  // 10 > 1.25*7 = 8.75
}

// --- eps_q == 0 bit-identity fuzz: every policy, every thread count. -----

template <typename Policy>
void run_exact_identity_fuzz(const Graph& g, const Policy& policy) {
  std::vector<SsspRequest> reqs;
  for (Vertex r = 0; r < g.num_vertices(); r += 3) {
    reqs.push_back({r, {}, Direction::kOut, 0});
    reqs.push_back({r, FaultSet{static_cast<EdgeId>(r % g.num_edges())},
                    Direction::kOut, 0});
  }
  // Reference: the core lazy-heap Dijkstra, one request at a time.
  std::vector<Spt> want;
  for (const SsspRequest& q : reqs)
    want.push_back(tiebroken_sssp(g, policy, q.root, q.faults, q.dir).spt);
  for (int threads : {1, 2, 8}) {
    BatchSsspEngine eng(threads);
    const auto got = eng.run_batch_spt(g, policy, reqs);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].num_vertices(), want[i].num_vertices());
      for (Vertex v = 0; v < want[i].num_vertices(); ++v) {
        EXPECT_EQ(got[i].hops(v), want[i].hops(v)) << "threads=" << threads;
        EXPECT_EQ(got[i].parent(v), want[i].parent(v))
            << "threads=" << threads;
        EXPECT_EQ(got[i].parent_edge(v), want[i].parent_edge(v));
      }
    }
  }
}

TEST(ApproxEngine, EpsZeroBitIdenticalAcrossPoliciesAndThreads) {
  for (int variant = 0; variant < 4; ++variant) {
    const Graph g = variant % 2 ? torus(4, 5 + variant)
                                : gnp_connected(26 + variant, 0.14, variant);
    run_exact_identity_fuzz(g, IsolationAtw(variant * 13 + 1));
    run_exact_identity_fuzz(g, RandomRealAtw(variant * 7 + 2,
                                             g.num_vertices()));
    run_exact_identity_fuzz(g, DeterministicAtw(g));
  }
}

// --- A fresh approximate tree is the exact tree. ---------------------------

// Each (root, dir, faults) is requested at eps_q == 0 and at every eps in
// one batch, so the tiers share thread workspaces; every approximate result
// must equal its exact twin in hops, parent, parent_edge and tie.
template <typename Policy>
void expect_fresh_eps_trees_exact(const Graph& g, const Policy& policy) {
  const std::vector<uint32_t> eps_levels{quantize_epsilon(0.05),
                                         quantize_epsilon(0.25),
                                         quantize_epsilon(1.0)};
  const Vertex n = g.num_vertices();
  std::vector<SsspRequest> reqs;
  for (const Vertex root : {Vertex{0}, n / 2 + 1}) {
    for (const Direction dir : {Direction::kOut, Direction::kIn}) {
      // The single fault cuts the fault-free tree a third of the way on.
      const Spt base = tiebroken_sssp(g, policy, root, {}, dir).spt;
      Vertex cut = (root + n / 3) % n;
      while (base.parent_edge(cut) == kNoEdge) cut = (cut + 1) % n;
      const FaultSet cut_fault{base.parent_edge(cut)};
      for (const FaultSet& faults : {FaultSet{}, cut_fault}) {
        reqs.push_back({root, faults, dir, 0});
        for (const uint32_t eps_q : eps_levels)
          reqs.push_back({root, faults, dir, eps_q});
      }
    }
  }
  const size_t group = 1 + eps_levels.size();
  for (int threads : {1, 2, 8}) {
    const BatchSsspEngine eng(threads);
    const auto got = eng.run_batch(g, policy, reqs);
    ASSERT_EQ(got.size(), reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
      if (reqs[i].eps_q == 0) continue;
      const auto& exact = got[i - i % group];
      SCOPED_TRACE("threads=" + std::to_string(threads) + " root=" +
                   std::to_string(reqs[i].root) + " eps_q=" +
                   std::to_string(reqs[i].eps_q) + " faults=" +
                   std::to_string(reqs[i].faults.size()) + " dir=" +
                   (reqs[i].dir == Direction::kOut ? "out" : "in"));
      ASSERT_EQ(got[i].spt.num_vertices(), exact.spt.num_vertices());
      ASSERT_EQ(got[i].tie.size(), exact.tie.size());
      size_t mismatches = 0;
      Vertex first = kNoVertex;
      for (Vertex v = 0; v < n; ++v) {
        if (got[i].spt.hops(v) == exact.spt.hops(v) &&
            got[i].spt.parent(v) == exact.spt.parent(v) &&
            got[i].spt.parent_edge(v) == exact.spt.parent_edge(v) &&
            got[i].tie[v] == exact.tie[v])
          continue;
        if (mismatches++ == 0) first = v;
      }
      EXPECT_EQ(mismatches, 0u) << "first mismatch at vertex " << first;
    }
  }
}

TEST(ApproxEngine, FreshEpsTreeIsTheExactTree) {
  const Graph graphs[] = {gnp_connected(2000, 8.0 / 2000, 81),
                          sparse_connected(2000, 3, 82)};
  uint64_t seed = 90;
  for (const Graph& g : graphs) {
    expect_fresh_eps_trees_exact(g, IsolationAtw(++seed));
    expect_fresh_eps_trees_exact(g, RandomRealAtw(++seed, g.num_vertices()));
    expect_fresh_eps_trees_exact(g, DeterministicAtw(g));
  }
}

// --- The stretch property: sandwich bound + realizability. ----------------

TEST(ApproxEngine, RelaxedLabelsWithinStretchBound) {
  for (int variant = 0; variant < 5; ++variant) {
    const Graph g = variant % 2 ? grid(4, 6 + variant)
                                : gnp_connected(40, 0.08, 11 + variant);
    const IsolationAtw atw(variant + 3);
    const BatchSsspEngine eng(4);
    for (double epsilon : {0.05, 0.25, 1.0}) {
      const uint32_t eps_q = quantize_epsilon(epsilon);
      std::vector<SsspRequest> reqs;
      for (Vertex r = 0; r < g.num_vertices(); r += 5) {
        reqs.push_back({r, {}, Direction::kOut, eps_q});
        reqs.push_back({r, FaultSet{static_cast<EdgeId>((r * 3) % g.num_edges())},
                        Direction::kOut, eps_q});
      }
      const auto approx = eng.run_batch_spt(g, atw, reqs);
      for (size_t i = 0; i < reqs.size(); ++i) {
        const Spt exact = tiebroken_sssp(g, atw, reqs[i].root, reqs[i].faults,
                                         reqs[i].dir)
                              .spt;
        expect_within_stretch(approx[i], exact, eps_q);
        expect_realizable(g, approx[i], reqs[i].faults);
      }
    }
  }
}

// --- eps-slack survival and repair preserve the contract under churn. -----

TEST(ApproxRpts, SurvivalAndRepairPreserveStretchUnderChurn) {
  Graph g = gnp_connected(36, 0.1, 21);
  const IsolationAtw atw(9);
  const IsolationRpts pi(g, atw);
  const uint32_t eps_q = quantize_epsilon(0.5);
  const BatchSsspEngine eng(2);

  std::vector<Vertex> roots{0, 7, 14, 21, 28, 35};
  std::vector<SsspRequest> reqs;
  for (Vertex r : roots) reqs.push_back({r, {}, Direction::kOut, eps_q});
  std::vector<Spt> trees = eng.run_batch_spt(g, atw, reqs);

  size_t survived = 0, repaired_ok = 0;
  for (int round = 0; round < 6; ++round) {
    // Mixed churn: one insert between far-ish vertices + one removal.
    std::vector<GraphDelta> deltas;
    const Vertex a = (round * 11 + 2) % g.num_vertices();
    const Vertex b = (round * 17 + 19) % g.num_vertices();
    if (a != b && g.find_edge(a, b) == kNoEdge)
      deltas.push_back(GraphDelta::insert(a, b));
    deltas.push_back(GraphDelta::remove((round * 13 + 5) % g.num_edges()));
    const DeltaBatch batch = g.apply(deltas);
    if (!batch.changed()) continue;

    for (size_t i = 0; i < trees.size(); ++i) {
      if (pi.batch_survives_eps(batch, trees[i], {}, eps_q)) {
        ++survived;
      } else {
        RepairOutcome out =
            pi.repair_tree_eps(trees[i], batch, {}, 0.5, eps_q);
        trees[i] = std::move(out.tree);
        ++repaired_ok;
      }
      // Survivor or repaired: the contract must hold on the NEW graph.
      const Spt exact = tiebroken_sssp(g, atw, roots[i], {}, Direction::kOut)
                            .spt;
      expect_within_stretch(trees[i], exact, eps_q);
      expect_realizable(g, trees[i], {});
    }
  }
  // The churn mix must actually exercise both paths.
  EXPECT_GT(survived, 0u);
  EXPECT_GT(repaired_ok, 0u);
}

TEST(ApproxRpts, EpsSlackSurvivesMoreInsertsThanExact) {
  Graph g = gnp_connected(40, 0.08, 33);
  const IsolationAtw atw(5);
  const IsolationRpts pi(g, atw);
  const uint32_t eps_q = quantize_epsilon(1.0);
  const BatchSsspEngine eng(2);

  std::vector<SsspRequest> reqs;
  for (Vertex r = 0; r < g.num_vertices(); r += 2)
    reqs.push_back({r, {}, Direction::kOut, eps_q});
  const std::vector<Spt> approx = eng.run_batch_spt(g, atw, reqs);
  std::vector<Spt> exact;
  for (const auto& q : reqs)
    exact.push_back(tiebroken_sssp(g, atw, q.root, q.faults, q.dir).spt);

  size_t eps_survive = 0, exact_survive = 0;
  for (int round = 0; round < 10; ++round) {
    const Vertex a = (round * 7 + 1) % g.num_vertices();
    const Vertex b = (round * 19 + 23) % g.num_vertices();
    if (a == b || g.find_edge(a, b) != kNoEdge) continue;
    std::vector<GraphDelta> deltas{GraphDelta::insert(a, b)};
    Graph h = g;  // probe the batch without committing it
    const DeltaBatch batch = h.apply(deltas);
    for (size_t i = 0; i < reqs.size(); ++i) {
      if (pi.batch_survives_eps(batch, approx[i], {}, eps_q)) ++eps_survive;
      if (pi.batch_survives(batch, exact[i], {})) ++exact_survive;
    }
  }
  // The slack test is a strict relaxation of the exact one, and at eps = 1
  // it should be measurably more permissive on random inserts.
  EXPECT_GE(eps_survive, exact_survive);
  EXPECT_GT(eps_survive, 0u);
}

// --- Cache identity: eps_q is part of the key; tiers coexist per shard. ---

TEST(ApproxCache, EpsKeysAreDistinctButShareShards) {
  const Graph g = gnp_connected(24, 0.15, 2);
  const IsolationRpts pi(g, IsolationAtw(4));
  const uint32_t eps_q = quantize_epsilon(0.5);
  SptCache cache(SptCache::Config{4, size_t{64} << 20});

  const SsspRequest exact_req{5, {}, Direction::kOut, 0};
  const SsspRequest approx_req{5, {}, Direction::kOut, eps_q};
  const SptKey exact_key(pi.version(), exact_req);
  const SptKey approx_key(pi.version(), approx_req);
  EXPECT_FALSE(exact_key == approx_key);
  // The shard hash ignores eps_q: both tiers of one root live on one shard
  // (so one advance_epoch pass walks both) yet key distinct entries.
  EXPECT_EQ(SptKeyHash::epoch_free(exact_key),
            SptKeyHash::epoch_free(approx_key));

  cache.insert(exact_key, pi.spt(5));
  EXPECT_EQ(cache.lookup(approx_key), nullptr);
  cache.insert(approx_key, pi.spt(5));
  EXPECT_NE(cache.lookup(approx_key), nullptr);
  EXPECT_NE(cache.lookup(exact_key), nullptr);
  EXPECT_EQ(cache.stats().entries, 2u);
}

// --- Server: approximate serving, escalation rules, stretch re-checks. ----

TEST(ApproxServer, ServesApproximatelyAndEscalatesOnDemand) {
  const Graph g = gnp_connected(40, 0.1, 17);
  const IsolationRpts pi(g, IsolationAtw(6));
  ServerConfig cfg;
  cfg.default_epsilon = 0.5;
  cfg.stretch_sample_every = 0;  // no re-checks; pure approximate serving
  OracleServer server(pi, cfg);
  const uint32_t eps_q = quantize_epsilon(0.5);
  const double eps = dequantize_epsilon(eps_q);

  for (Vertex s = 0; s < g.num_vertices(); s += 4) {
    const Spt exact = pi.spt(s);
    for (Vertex t = 0; t < g.num_vertices(); t += 7) {
      const int32_t approx = server.distance(s, t);
      if (exact.hops(t) == kUnreachable) {
        EXPECT_EQ(approx, kUnreachable);
        continue;
      }
      EXPECT_GE(approx, exact.hops(t));
      EXPECT_LE(static_cast<double>(approx),
                stretch_bound(eps, exact.hops(t)) + 1e-9);
      // require_exact escalates and answers exactly.
      EXPECT_EQ(server.distance(s, t, {}, {.require_exact = true}),
                exact.hops(t));
      // Per-query epsilon 0 answers exactly too.
      EXPECT_EQ(server.distance(s, t, {}, {.epsilon = 0.0}), exact.hops(t));
    }
  }
  const ServerStats st = server.stats();
  if constexpr (obs::kEnabled) {
    EXPECT_GT(st.approx_hit + st.miss_leader + st.miss_coalesced, 0u);
    EXPECT_GT(st.approx_hit, 0u);  // repeated roots hit the approx tier
    EXPECT_GT(st.escalated, 0u);
    EXPECT_GT(st.escalations_explicit, 0u);
    EXPECT_EQ(st.escalations_total,
              st.escalations_explicit + st.escalations_path +
                  st.escalations_stretch_recheck);
  }
}

TEST(ApproxServer, StretchRecheckReturnsExactAnswer) {
  const Graph g = grid(5, 6);
  const IsolationRpts pi(g, IsolationAtw(8));
  ServerConfig cfg;
  cfg.default_epsilon = 1.0;
  cfg.stretch_sample_every = 1;  // EVERY approximate query re-checks
  OracleServer server(pi, cfg);

  for (Vertex s = 0; s < g.num_vertices(); s += 3) {
    const Spt exact = pi.spt(s);
    for (Vertex t = 0; t < g.num_vertices(); t += 5)
      EXPECT_EQ(server.distance(s, t), exact.hops(t)) << s << "->" << t;
  }
  if constexpr (obs::kEnabled) {
    const ServerStats st = server.stats();
    EXPECT_GT(st.escalations_stretch_recheck, 0u);
    EXPECT_GT(st.stretch_samples, 0u);
    // Observed stretch is within the promised bound -- for the histogram's
    // worst sample too: (1+eps)^d * d at eps = 1 over this grid's diameter.
    const double worst_allowed =
        (stretch_bound(1.0, 9) - 9.0) * 1e6 / 9.0;  // excess ppm at d = 9
    EXPECT_LE(static_cast<double>(st.max_stretch_excess_ppm),
              worst_allowed + 1.0);
  }
}

TEST(ApproxServer, PathAndReplacementAlwaysEscalate) {
  const Graph g = gnp_connected(30, 0.12, 12);
  const IsolationRpts pi(g, IsolationAtw(3));
  ServerConfig cfg;
  cfg.default_epsilon = 0.5;
  OracleServer server(pi, cfg);

  const Path p = server.path(1, 20);
  const Path want = pi.path(1, 20);
  EXPECT_EQ(p.vertices, want.vertices);  // exact path, not an approximate one
  EXPECT_EQ(server.replacement_distance(1, 20, 0),
            OracleServer(pi, ServerConfig{}).replacement_distance(1, 20, 0));
  if constexpr (obs::kEnabled) {
    EXPECT_GT(server.stats().escalations_path, 0u);
  }
}

TEST(ApproxServer, ApproxTierSurvivesChurnAtLeastAsWellAsExact) {
  Graph g = gnp_connected(36, 0.1, 41);
  const IsolationAtw atw(14);
  const IsolationRpts pi(g, atw);
  ServerConfig cfg;
  cfg.default_epsilon = 1.0;
  cfg.stretch_sample_every = 0;
  OracleServer server(pi, cfg);

  // Warm both tiers on the same roots.
  for (Vertex s = 0; s < g.num_vertices(); s += 3) {
    server.distance(s, (s + 5) % g.num_vertices());
    server.distance(s, (s + 5) % g.num_vertices(), {},
                    {.require_exact = true});
  }
  size_t carried_total = 0, invalidated_total = 0;
  for (int round = 0; round < 4; ++round) {
    const Vertex a = (round * 13 + 3) % g.num_vertices();
    const Vertex b = (round * 29 + 17) % g.num_vertices();
    if (a == b || g.find_edge(a, b) != kNoEdge) continue;
    const UpdateResult res = server.apply_update(g, GraphDelta::insert(a, b));
    carried_total += res.carried;
    invalidated_total += res.invalidated;
    // Post-churn answers still within bound.
    const Spt exact = pi.spt(3);
    const int32_t d = server.distance(3, b);
    if (exact.hops(b) != kUnreachable) {
      EXPECT_GE(d, exact.hops(b));
      EXPECT_LE(static_cast<double>(d),
                stretch_bound(1.0, exact.hops(b)) + 1e-9);
    }
  }
  EXPECT_GT(carried_total, 0u);
  (void)invalidated_total;
}

}  // namespace
}  // namespace restorable
