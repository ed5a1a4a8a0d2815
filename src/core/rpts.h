// Replacement path tiebreaking schemes (Definitions 12-17 of the paper).
//
// An f-RPTS is the map pi(s, t | F): for each ordered vertex pair and fault
// set, one selected shortest path of G \ F. Here a scheme is *generated*
// rather than tabulated: `spt(root, F, dir)` materializes the scheme
// restricted to one root, and pi(s, t | F) is read off the out-tree of s.
//
// Two families are provided:
//  * Rpts<Policy> -- schemes generated by an antisymmetric tiebreaking
//    weight function (Theorem 19): stable, consistent and f-restorable for
//    every f. This is the paper's main construction.
//  * ArbitraryRpts -- a plausible-looking per-root BFS scheme (parents
//    chosen by smallest vertex id) that is NOT restorable; it realizes the
//    "bad" tiebreaking of Figure 1 and serves as the contrast baseline in
//    tests and benches. (The full Theorem 37 impossibility -- *no* symmetric
//    scheme on C4 is restorable -- is verified by exhaustive enumeration in
//    the tests.)
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/dijkstra.h"
#include "core/perturbation.h"
#include "core/spt.h"
#include "engine/batch_sssp.h"
#include "graph/graph.h"

namespace restorable {

// The serving-layer tree store (serve/spt_cache.h): spt_batch can resolve
// requests through a shared SptCache, which is what lets construction paths
// (subset-rp, preservers, labels, oracles) and the online serving path
// (serve/oracle_server.h) share one store of trees. Only a handle is
// threaded through here -- the full type is a .cc-level dependency.
class SptCache;

// Cache-through batch fetch shared by IRpts::spt_batch and Rpts<Policy>'s
// override (implemented in core/rpts.cc): resolves every request against
// `cache`, deduplicates the misses within the batch, computes them with ONE
// `compute_misses` call (the caller's engine-batched path), inserts the
// fresh trees, and returns request-order results. Hits hand out the cached
// pointer zero-copy; misses are wrapped into a handle exactly once and
// shared between the cache and every slot that requested them. Trees are
// bit-identical to what the compute path alone produces.
std::vector<SptHandle> cached_spt_batch(
    SchemeVersion version, SptCache& cache,
    std::span<const SsspRequest> requests,
    const std::function<std::vector<Spt>(std::span<const SsspRequest>)>&
        compute_misses);

// Wraps engine-computed trees into handles (one allocation per tree, no tree
// copies) -- the uncached tail of every spt_batch implementation.
inline std::vector<SptHandle> share_spts(std::vector<Spt>&& trees) {
  std::vector<SptHandle> out;
  out.reserve(trees.size());
  for (Spt& t : trees) out.push_back(std::make_shared<const Spt>(std::move(t)));
  return out;
}

// Result of one incremental tree repair (IRpts::repair_tree). `tree` is
// always bit-identical to a from-scratch recompute at the current epoch;
// `repaired` records whether the incremental path produced it (false = the
// affected region was too large, or the scheme lacks exact arithmetic, and
// a full recompute ran instead); `touched` counts the vertices whose label
// was re-derived -- the size of the affected region the repair actually
// paid for.
struct RepairOutcome {
  Spt tree;
  bool repaired = false;
  size_t touched = 0;
};

// Default ceiling on the affected region an incremental repair may grow to,
// as a fraction of the vertex count, before falling back to a from-scratch
// recompute (whose cost the repair would otherwise approach from above:
// the incremental machinery re-derives labels one heap operation at a time
// while a full Dijkstra streams the whole graph).
inline constexpr double kDefaultRepairFraction = 0.25;

// Type-erased scheme interface. Everything downstream (replacement paths,
// preservers, spanners, labels, the CONGEST layer) consumes schemes through
// this interface, so any policy plugs in anywhere.
class IRpts {
 public:
  IRpts();
  virtual ~IRpts() = default;
  // Copies and assigned-over schemes are separate instances for cache-keying
  // purposes: a fresh id is minted in both cases (assignment may swap the
  // derived graph/policy, so keeping the old id could alias stale trees).
  // Always sound -- worst case a cold cache, never a wrong tree.
  IRpts(const IRpts&) : IRpts() {}
  IRpts& operator=(const IRpts&) {
    scheme_id_ = next_scheme_id();
    return *this;
  }

  virtual const Graph& graph() const = 0;
  virtual std::string name() const = 0;

  // Identity of this scheme instance for SPT cache keying. Trees are
  // deterministic functions of (graph, policy, root, faults, dir); the
  // instance id pins down the policy and the graph *object*, and the
  // graph's epoch pins down its topology over time, so
  // (version(), root, faults, dir) keys bit-identical trees even while the
  // graph mutates between queries.
  uint64_t scheme_id() const { return scheme_id_; }

  // The composite (scheme_id, graph epoch) version current trees are keyed
  // by. A mutation bumps the epoch instead of abandoning the scheme; trees
  // provably unaffected by the delta (tree_survives) are carried forward to
  // the new version by the serving cache.
  SchemeVersion version() const { return {scheme_id_, graph().epoch()}; }

  // Carry-forward predicate of the dynamic-update pipeline: true iff `tree`
  // -- computed by this scheme for `faults` at the epoch immediately before
  // `delta` was applied -- is still bit-identical to what a from-scratch
  // recompute at the post-delta epoch would produce. `delta` must be fully
  // filled in (i.e. the value Graph::apply returned). Soundness contract:
  // `false` is always allowed (worst case a spurious recompute); `true`
  // must be exact.
  //
  // The base implementation handles the two generically-decidable cases:
  // a delta whose edge is in `faults` never changes the tree (the edge is
  // excluded from G \ F whether or not it is in G), and a removal leaves
  // any tree that avoids the removed edge intact (stability: selections
  // among surviving paths are unchanged when only competing paths vanish).
  // Inserts are conservatively invalidating here; Rpts<Policy> refines them
  // with the exact perturbed-tightness test.
  virtual bool tree_survives(const GraphDelta& delta, const Spt& tree,
                             const FaultSet& faults) const;

  // Batch carry-forward predicate: true iff `tree` survives EVERY net delta
  // of the batch. Exact, not merely sound: survival of each removal means
  // the tree avoids it (its selections persist unchanged), and under
  // unchanged labels each insert's strict non-tightness test is
  // per-edge-independent (the old distances are a feasible potential for
  // the grown graph iff they are for every new edge separately), so the
  // conjunction over net deltas decides the whole batch. A flap healed
  // within the batch has no net delta and vacuously survives.
  //
  // eps_q > 0 judges an approximate tree of that tier instead: removals are
  // decided exactly as above, and each insert goes to tree_survives_eps
  // (below) rather than the exact tree_survives. The conjunction is exact
  // for the same reason: each per-edge F2 check reads only the old tree.
  bool batch_survives(const DeltaBatch& batch, const Spt& tree,
                      const FaultSet& faults, uint32_t eps_q = 0) const;

  // Advances `old_tree` -- computed by this scheme at batch.old_epoch for
  // `faults` -- to batch.new_epoch. The result is bit-identical to a
  // from-scratch recompute on the mutated graph. The base implementation
  // always recomputes (repaired = false); Rpts<Policy> overrides it with
  // Ramalingam-Reps-style incremental repair, falling back to the full
  // recompute when the affected region exceeds `max_affected_fraction` of
  // the vertex count. Rpts<Policy> runs that recompute on `engine`
  // (nullptr = the shared engine), so it shows in the counters of the
  // engine the caller serves on.
  virtual RepairOutcome repair_tree(
      const Spt& old_tree, const DeltaBatch& batch, const FaultSet& faults,
      double max_affected_fraction,
      const BatchSsspEngine* engine = nullptr) const;
  RepairOutcome repair_tree(const Spt& old_tree,
                            const DeltaBatch& batch) const {
    return repair_tree(old_tree, batch, FaultSet{}, kDefaultRepairFraction);
  }

  // ---- Approximate (1+eps) tier ------------------------------------------
  //
  // A fresh approximate tree (SsspRequest::eps_q > 0) is the exact tree. Its
  // cache entry then drifts from the exact one under updates: it is carried
  // forward and repaired against a maintained per-edge contract F rather
  // than bit-identity:
  //   F1 (realizability): every finite label hops[v] is witnessed by the
  //       parent chain -- a real root~v path in G \ F of length <= hops[v]
  //       (chains strictly descend in hops) -- so hops[v] >= d_true(v);
  //   F2 (relaxed feasibility): for every present non-fault edge (x, y), in
  //       both directions, a finite hops[x] implies hops[y] is finite and
  //       hops[y] <= (1+eps) * (hops[x] + 1) (epsilon_improves, exact
  //       integers).
  // F1 + F2 imply the endpoint stretch bound
  //   d_true(v) <= hops[v] <= (1+eps)^d_true(v) * d_true(v)
  // by induction along any true shortest path. Crucially, F -- not the
  // endpoint bound alone -- is what the predicates below preserve: the
  // endpoint bound by itself does NOT survive edge inserts (a new edge can
  // shorten d_true out from under a previously-valid label), while per-edge
  // feasibility checked on the new edge does. The predicates are hops-only
  // (no tie arithmetic), hence policy-free and non-virtual.

  // Epsilon carry-forward for one delta: `tree` is an approximate tree
  // satisfying F for `faults` at eps = eps_q/kEpsilonDenom. A removal is
  // survived iff the tree avoids the edge (constraints only disappear); an
  // insert iff both endpoints share reachability status and both directed
  // (1+eps) feasibility checks hold on the new edge -- a strictly weaker
  // demand than the exact tier's tightness test, which is why approximate
  // carried-forward fractions under churn run measurably higher than exact.
  bool tree_survives_eps(const GraphDelta& delta, const Spt& tree,
                         const FaultSet& faults, uint32_t eps_q) const;

  // batch_survives(batch, tree, faults, eps_q) under the tier's own name.
  bool batch_survives_eps(const DeltaBatch& batch, const Spt& tree,
                          const FaultSet& faults, uint32_t eps_q) const {
    return batch_survives(batch, tree, faults, eps_q);
  }

  // Epsilon repair: advances an approximate tree across `batch` so that F
  // holds at the new epoch. Hops-only two-phase repair: removals detach the
  // affected subtree forest and re-relax it exactly against the survivors
  // (detached labels that come back LOWER than before tighten the
  // feasibility constraints on arcs leaving them and seed a relaxed
  // decrease-cascade); net inserts then cascade with the relaxed
  // (1+eps) improvement test, which only re-labels vertices whose label
  // breaks F. Past `max_affected_fraction` the repair falls back to a full
  // exact recompute on `engine` (repaired = false; nullptr = the shared
  // engine) -- exact trees satisfy F trivially. NOT bit-identical to a
  // fresh compute (see SptKey::eps_q); the result is within the stretch
  // bound, which is the approximate tier's whole contract.
  RepairOutcome repair_tree_eps(const Spt& old_tree, const DeltaBatch& batch,
                                const FaultSet& faults,
                                double max_affected_fraction, uint32_t eps_q,
                                const BatchSsspEngine* engine = nullptr) const;

  // The roots among `base_trees` (fault-free trees of this scheme, e.g. the
  // cached hot set) whose tiebroken SPT can actually change under `delta`
  // -- the complement of the carry-forward set. Null handles are skipped.
  std::vector<Vertex> affected_roots(
      const GraphDelta& delta, std::span<const SptHandle> base_trees) const;

  // The scheme restricted to `root` under fault set F. dir == kOut encodes
  // pi(root, v | F) for all v; dir == kIn encodes pi(v, root | F).
  virtual Spt spt(Vertex root, const FaultSet& faults = {},
                  Direction dir = Direction::kOut) const = 0;

  // Batched spt: results in request order, one shared tree handle per
  // request, computed over `engine` (nullptr = the shared hardware-sized
  // engine). The default fans the virtual spt() out over the engine's pool;
  // Rpts<Policy> overrides it with the workspace-reusing batch path. Every
  // per-root / per-fault loop downstream submits through this instead of
  // looping. With a non-null `cache`, requests are resolved through it:
  // hits hand out the cached pointer zero-copy, misses compute as one
  // engine batch and publish the same handle the caller receives. Trees are
  // bit-identical either way; see SptHandle for the ownership rules.
  virtual std::vector<SptHandle> spt_batch(
      std::span<const SsspRequest> requests,
      const BatchSsspEngine* engine = nullptr,
      SptCache* cache = nullptr) const;

  // The SAME scheme (same scheme_id, same policy, same tiebreak arithmetic)
  // rebound to a frozen copy of its graph -- the read side of the RCU
  // serving path (serve/generation.h): a pinned generation computes trees
  // against `frozen` while the live graph keeps mutating underneath.
  // `frozen` must be a snapshot of this scheme's graph (Graph::snapshot());
  // the view's trees are then bit-identical to this scheme's trees at the
  // snapshot's epoch, and because scheme_id carries over, they share cache
  // keys with them too. The caller keeps `frozen` alive for the view's
  // lifetime (the generation owns both). Every query OracleShard serves
  // reads such a view, so every scheme must provide one; a shard rejects a
  // scheme whose view comes back null (std::invalid_argument).
  virtual std::unique_ptr<IRpts> snapshot_view(const Graph& frozen) const = 0;

  // pi(s, t | F), oriented s -> t. Empty if t is unreachable in G \ F.
  Path path(Vertex s, Vertex t, const FaultSet& faults = {}) const {
    return spt(s, faults, Direction::kOut).path_to(t);
  }

  // Hop length of pi(s, t | F); kUnreachable if disconnected.
  int32_t distance(Vertex s, Vertex t, const FaultSet& faults = {}) const {
    return spt(s, faults, Direction::kOut).hops(t);
  }

 protected:
  // For snapshot_view implementations: makes `view` (a freshly built scheme
  // over the frozen graph) answer to this scheme's cache identity, so
  // (scheme_id, epoch, root, faults, dir) keys the same bit-identical trees
  // whether computed on the live graph or the snapshot. Only sound when the
  // view really is the same scheme over the same topology -- copying an id
  // across different policies would alias wrong trees.
  void adopt_identity(const IRpts& of) { scheme_id_ = of.scheme_id_; }

 private:
  static uint64_t next_scheme_id();

  uint64_t scheme_id_;
};

// Theorem 19 scheme: unique shortest paths of the reweighted graph G* \ F.
template <typename Policy>
class Rpts final : public IRpts {
 public:
  Rpts(const Graph& g, Policy policy)
      : g_(&g), policy_(std::move(policy)) {}

  const Graph& graph() const override { return *g_; }
  std::string name() const override { return policy_.name(); }
  const Policy& policy() const { return policy_; }

  // The reference Dijkstra, deliberately not the engine: this (and sssp()
  // below) is the independent oracle the tests and perfbench's answer
  // checks compare engine-built trees against.
  Spt spt(Vertex root, const FaultSet& faults = {},
          Direction dir = Direction::kOut) const override {
    return tiebroken_sssp(*g_, policy_, root, faults, dir).spt;
  }

  std::vector<SptHandle> spt_batch(std::span<const SsspRequest> requests,
                                   const BatchSsspEngine* engine = nullptr,
                                   SptCache* cache = nullptr) const override {
    const BatchSsspEngine& eng = BatchSsspEngine::or_shared(engine);
    if (!cache) return share_spts(eng.run_batch_spt(*g_, policy_, requests));
    return cached_spt_batch(version(), *cache, requests,
                            [&](std::span<const SsspRequest> missed) {
                              return eng.run_batch_spt(*g_, policy_, missed);
                            });
  }

  // Refines the base carry-forward predicate with the exact insert test:
  // the old tree survives an insert of e = (u, v) iff neither orientation
  // of e relaxes an endpoint label, i.e. the old perturbed distances are a
  // feasible potential for the grown graph. Then every path through e is
  // strictly longer than the old (unique) selections, so the tree is still
  // THE tree -- the reweighted-graph version of the classic "a non-tight
  // edge changes nothing" argument. Ties are recovered from the Spt by
  // accumulating the policy along parent chains (O(depth) per endpoint), so
  // no DijkstraResult needs to be retained.
  bool tree_survives(const GraphDelta& delta, const Spt& tree,
                     const FaultSet& faults) const override {
    // The generically-decidable cases (delta edge inside the fault set,
    // removals) stay with the base predicate; only inserts are refined.
    if (delta.kind == GraphDelta::Kind::kRemove ||
        (delta.edge != kNoEdge && faults.contains(delta.edge)))
      return IRpts::tree_survives(delta, tree, faults);
    const bool a_reach = tree.reachable(delta.u);
    const bool b_reach = tree.reachable(delta.v);
    // Both endpoints outside the root's component: e cannot extend it.
    if (!a_reach && !b_reach) return true;
    // Exactly one reachable: e attaches new vertices to the tree.
    if (a_reach != b_reach) return false;
    if constexpr (requires { policy_.can_accumulate(delta.label); }) {
      if (!policy_.can_accumulate(delta.label)) return false;
    }
    using Tie = typename Policy::Tie;
    const Tie ta = path_tie(tree, delta.u);
    const Tie tb = path_tie(tree, delta.v);
    // The two candidate relaxations across e. For kOut trees (distances
    // from the root) travel u -> v relaxes v; for kIn trees (distances
    // towards the root) the same traversal instead offers u a route via v.
    // Either way each stored orientation is accumulated onto one endpoint's
    // tie and compared against the other's settled label; survival needs
    // both candidates strictly worse (equality is conservatively treated as
    // affected -- uniqueness makes it impossible for exact policies).
    auto strictly_worse = [&](int32_t src_hops, const Tie& src_tie,
                              bool travel_forward, int32_t dst_hops,
                              const Tie& dst_tie) {
      const int32_t cand_hops = src_hops + 1;
      if (cand_hops != dst_hops) return cand_hops > dst_hops;
      Tie cand = src_tie;
      policy_.accumulate(cand, delta.label, travel_forward);
      return policy_.compare(cand, dst_tie) > 0;
    };
    const int32_t ha = tree.hops(delta.u), hb = tree.hops(delta.v);
    if (tree.dir == Direction::kOut)
      return strictly_worse(ha, ta, /*travel u->v*/ true, hb, tb) &&
             strictly_worse(hb, tb, /*travel v->u*/ false, ha, ta);
    return strictly_worse(hb, tb, /*travel u->v*/ true, ha, ta) &&
           strictly_worse(ha, ta, /*travel v->u*/ false, hb, tb);
  }

  // Ramalingam-Reps-style incremental repair over the tiebroken metric.
  //
  // Phase R (removals): vertices whose old tree path uses a removed edge are
  // detached as one subtree forest; the surviving vertices' labels are
  // already exact for the shrunk graph (stability: their unique selected
  // paths persist and removals cannot create shorter ones), so a bounded
  // Dijkstra re-relaxes only the detached region's frontier against the
  // surviving forest. Phase I (inserts): each net-inserted edge offers two
  // directed relaxations against the phase-R labels; improvements cascade in
  // Dijkstra order (every perturbed arc weight is 1 + r > 1/2 > 0, so a
  // popped minimum is settled). Both phases relax with the exact policy
  // arithmetic the from-scratch Dijkstra uses, and the scheme's trees are
  // unique, so the repaired tree is bit-identical to a recompute -- asserted
  // by the repair fuzz tests across all three ATW policies.
  using IRpts::repair_tree;
  RepairOutcome repair_tree(
      const Spt& old_tree, const DeltaBatch& batch, const FaultSet& faults,
      double max_affected_fraction,
      const BatchSsspEngine* engine = nullptr) const override {
    using Tie = typename Policy::Tie;
    const Graph& g = *g_;
    const Vertex n = g.num_vertices();
    const Direction dir = old_tree.dir;
    const Vertex root = old_tree.root;

    // Recompute fallback: one request on the engine (bit-identical to
    // spt(), on the engine's reused workspace, and counted by it).
    auto full = [&] {
      const SsspRequest req{root, faults, dir};
      RepairOutcome out;
      out.tree = std::move(BatchSsspEngine::or_shared(engine).run_batch_spt(
          g, policy_, std::span<const SsspRequest>(&req, 1))[0]);
      out.touched = n;
      return out;
    };

    // The batch restricted to deltas this tree can feel: a delta on a
    // faulted edge never matters (the edge is excluded from G \ F either
    // way), and a flap healed inside the batch has no net entry at all.
    // FaultSets (sorted id vectors) give the O(log k) membership the
    // per-arc loops below probe.
    FaultSet removed, inserted;
    for (const GraphDelta& d : batch.net) {
      if (d.edge != kNoEdge && faults.contains(d.edge)) continue;
      (d.kind == GraphDelta::Kind::kRemove ? removed : inserted)
          .insert(d.edge);
    }
    if (removed.empty() && inserted.empty()) {
      // Net no-op for this tree: the old tree IS the new tree.
      return {old_tree, /*repaired=*/true, /*touched=*/0};
    }
    if constexpr (requires { policy_.can_accumulate(EdgeId{}); }) {
      // A label the policy cannot evaluate (fresh slot appended after the
      // policy tabulated its weights) defeats the exact arithmetic;
      // recompute conservatively.
      for (EdgeId e : inserted)
        if (!policy_.can_accumulate(g.label(e))) return full();
    }

    const size_t limit = std::max<size_t>(
        8, static_cast<size_t>(max_affected_fraction * static_cast<double>(n)));

    RepairOutcome out;
    // The repair mutates labels in place, so it starts from a fat copy
    // (identity copy when the cached tree was never compacted). Re-attach
    // THIS graph's endpoint table: the cached tree may hold the table from
    // before a fresh-slot append (Graph::edges_mut clones when shared), and
    // the insert phase below writes the new slot ids into parent_edge --
    // compacting against the stale, shorter table would then read the
    // endpoint vector out of bounds. Slots are append-only with preserved
    // endpoint order, so the current table is valid for every old id too.
    // nt holds the old labels until phase R writes: the passes below read
    // them there, so a compact tree's parents are decoded once (the thaw).
    out.tree = old_tree.thawed();
    out.tree.attach_endpoints(g.shared_endpoints());
    out.repaired = true;
    Spt& nt = out.tree;

    // Detach: a vertex is affected by the removals iff its old tree path
    // uses a removed edge; parent propagation in root-to-leaf order marks
    // the whole detached forest in O(n).
    const std::vector<Vertex> order = nt.top_order();
    std::vector<char> detached(n, 0);
    size_t detached_count = 0;
    if (!removed.empty()) {
      for (Vertex v : order) {
        const Vertex p = nt.parent(v);
        if (p == kNoVertex) continue;
        if (detached[p] || removed.contains(nt.parent_edge(v))) {
          detached[v] = 1;
          ++detached_count;
        }
      }
      if (detached_count > limit) return full();
    }

    // Surviving vertices keep their exact old labels; rebuild their tie
    // values by one accumulation pass down the old tree (identical
    // arithmetic to the Dijkstra that settled them: tie[v] =
    // tie[parent] + r(parent edge), read in travel order).
    std::vector<Tie> tie(n, policy_.zero());
    auto chain_travel_forward = [&](Vertex p, EdgeId pe) {
      const bool stored_from_parent = g.endpoints(pe).u == p;
      return dir == Direction::kOut ? stored_from_parent : !stored_from_parent;
    };
    for (Vertex v : order) {
      const Vertex p = nt.parent(v);
      if (p == kNoVertex || detached[v]) continue;
      const EdgeId pe = nt.parent_edge(v);
      Tie t = tie[p];
      policy_.accumulate(t, g.label(pe), chain_travel_forward(p, pe));
      tie[v] = std::move(t);
    }

    auto& nt_hops = nt.mutable_hops();
    auto& nt_parent = nt.mutable_parent();
    auto& nt_parent_edge = nt.mutable_parent_edge();

    // Compact-aware fast path: when the cached tree arrived compact, record
    // every vertex whose label this repair writes (detached forest + insert
    // improvements -- both phases write nothing else) and re-compact at the
    // end by patching those labels over the old compact image
    // (Spt::compact_from) instead of the thaw -> full compact() round-trip
    // the publication path would otherwise pay.
    const bool want_patch = old_tree.is_compact();
    std::vector<Vertex> patch_touched;

    // Tentative-label heap shared by both phases (lazy deletion: stale
    // entries are skipped by comparing against the current label).
    struct QItem {
      int32_t hops;
      Tie tie;
      Vertex v;
    };
    auto worse = [this](const QItem& a, const QItem& b) {
      if (a.hops != b.hops) return a.hops > b.hops;
      return policy_.compare(a.tie, b.tie) > 0;
    };
    std::priority_queue<QItem, std::vector<QItem>, decltype(worse)> pq(worse);

    // ---- Phase R: re-relax the detached region against the survivors.
    if (detached_count > 0) {
      for (Vertex v = 0; v < n; ++v) {
        if (!detached[v]) continue;
        nt_hops[v] = kUnreachable;
        nt_parent[v] = kNoVertex;
        nt_parent_edge[v] = kNoEdge;
        if (want_patch) patch_touched.push_back(v);
      }
      std::vector<char> settled(n, 0);
      auto relax_into = [&](Vertex w, int32_t h, Tie t, Vertex par,
                            EdgeId pe) {
        if (nt_hops[w] != kUnreachable &&
            (nt_hops[w] < h ||
             (nt_hops[w] == h && policy_.compare(tie[w], t) <= 0)))
          return;
        nt_hops[w] = h;
        tie[w] = t;
        nt_parent[w] = par;
        nt_parent_edge[w] = pe;
        pq.push({h, std::move(t), w});
      };
      // Frontier: every surviving in-neighbor of a detached vertex offers a
      // candidate label across the boundary arc (travel u -> v; iterating
      // arcs of v, the stored flag flips exactly as in
      // establish_sssp_parent).
      for (Vertex v = 0; v < n; ++v) {
        if (!detached[v]) continue;
        for (const Arc& a : g.arcs(v)) {
          const Vertex u = a.to;
          if (detached[u] || nt_hops[u] == kUnreachable) continue;
          if (faults.contains(a.edge) || inserted.contains(a.edge)) continue;
          const bool travel_forward =
              dir == Direction::kOut ? !a.forward : a.forward;
          Tie t = tie[u];
          policy_.accumulate(t, g.label(a.edge), travel_forward);
          relax_into(v, nt_hops[u] + 1, std::move(t), u, a.edge);
        }
      }
      while (!pq.empty()) {
        QItem top = pq.top();
        pq.pop();
        const Vertex v = top.v;
        if (settled[v] || top.hops != nt_hops[v] ||
            policy_.compare(top.tie, tie[v]) != 0)
          continue;
        settled[v] = 1;
        ++out.touched;
        for (const Arc& a : g.arcs(v)) {
          const Vertex w = a.to;
          if (!detached[w] || settled[w]) continue;
          if (faults.contains(a.edge) || inserted.contains(a.edge)) continue;
          const bool travel_forward =
              dir == Direction::kOut ? a.forward : !a.forward;
          Tie t = tie[v];
          policy_.accumulate(t, g.label(a.edge), travel_forward);
          relax_into(w, nt_hops[v] + 1, std::move(t), v, a.edge);
        }
      }
    }

    // ---- Phase I: cascade the net inserts. nt/tie now hold the exact
    // labels of the graph without the inserted edges; each insert offers two
    // directed relaxations, and every improvement propagates in Dijkstra
    // order over ALL present arcs (inserted ones included).
    if (!inserted.empty()) {
      std::vector<char> improved(n, 0);
      size_t improved_count = 0;
      bool bail = false;
      auto relax = [&](Vertex s, Vertex t_v, EdgeId e) {
        if (nt_hops[s] == kUnreachable) return;
        const bool stored_fwd = g.endpoints(e).u == s;  // travel s -> t_v
        const bool travel_forward =
            dir == Direction::kOut ? stored_fwd : !stored_fwd;
        const int32_t h = nt_hops[s] + 1;
        if (nt_hops[t_v] != kUnreachable && nt_hops[t_v] < h) return;
        Tie t = tie[s];
        policy_.accumulate(t, g.label(e), travel_forward);
        if (nt_hops[t_v] != kUnreachable && nt_hops[t_v] == h &&
            policy_.compare(tie[t_v], t) <= 0)
          return;
        nt_hops[t_v] = h;
        tie[t_v] = t;
        nt_parent[t_v] = s;
        nt_parent_edge[t_v] = e;
        if (!improved[t_v]) {
          improved[t_v] = 1;
          if (want_patch) patch_touched.push_back(t_v);
          if (++improved_count > limit) bail = true;
        }
        pq.push({h, std::move(t), t_v});
      };
      for (EdgeId e : inserted) {
        const Edge& ed = g.endpoints(e);
        relax(ed.u, ed.v, e);
        relax(ed.v, ed.u, e);
      }
      while (!pq.empty() && !bail) {
        QItem top = pq.top();
        pq.pop();
        const Vertex v = top.v;
        if (top.hops != nt_hops[v] ||
            policy_.compare(top.tie, tie[v]) != 0)
          continue;  // stale: v improved further after this push
        ++out.touched;
        for (const Arc& a : g.arcs(v)) {
          if (faults.contains(a.edge)) continue;
          relax(v, a.to, a.edge);
        }
      }
      if (bail) return full();
    }
    // Patch-compact on success; on decline (e.g. a fresh slot beyond the old
    // endpoint table) the tree simply stays fat and the caller's usual
    // publication compact() applies.
    if (want_patch) nt.compact_from(old_tree, patch_touched);
    return out;
  }

  // Full result including exact tie values (used by the RP algorithms).
  DijkstraResult<Policy> sssp(Vertex root, const FaultSet& faults = {},
                              Direction dir = Direction::kOut) const {
    return tiebroken_sssp(*g_, policy_, root, faults, dir);
  }

  // Batched full results, in request order.
  std::vector<DijkstraResult<Policy>> sssp_batch(
      std::span<const SsspRequest> requests,
      const BatchSsspEngine* engine = nullptr) const {
    return BatchSsspEngine::or_shared(engine).run_batch(*g_, policy_,
                                                        requests);
  }

  // The same scheme viewed over a subgraph of g (edge labels must refer to
  // g's edges, which Graph::edge_subgraph guarantees). Stability and
  // consistency transfer because the weights are per-label.
  Rpts<Policy> over(const Graph& subgraph) const {
    return Rpts<Policy>(subgraph, policy_);
  }

  // Same policy instance over the frozen graph, answering to this scheme's
  // cache identity: per-label weights make the rebound scheme bit-identical
  // at the snapshot's epoch.
  std::unique_ptr<IRpts> snapshot_view(const Graph& frozen) const override {
    auto view = std::make_unique<Rpts<Policy>>(frozen, policy_);
    view->adopt_identity(*this);
    return view;
  }

 private:
  // The accumulated perturbation along the tree path root ~ x, read in
  // travel order (root -> x for kOut trees, x -> root for kIn trees).
  // Accumulation order is immaterial: every policy's Tie is a commutative
  // sum. x must be reachable in `tree`.
  typename Policy::Tie path_tie(const Spt& tree, Vertex x) const {
    auto tie = policy_.zero();
    for (Vertex v = x; tree.parent(v) != kNoVertex; v = tree.parent(v)) {
      const EdgeId pe = tree.parent_edge(v);
      const Vertex p = tree.parent(v);
      // kOut hops travel parent -> v, kIn hops travel v -> parent; the
      // stored orientation of pe decides the forward flag.
      const bool stored_from_parent = g_->endpoints(pe).u == p;
      const bool travel_forward =
          tree.dir == Direction::kOut ? stored_from_parent
                                      : !stored_from_parent;
      policy_.accumulate(tie, g_->label(pe), travel_forward);
    }
    return tie;
  }

  const Graph* g_;
  Policy policy_;
};

using IsolationRpts = Rpts<IsolationAtw>;
using RandomRealRpts = Rpts<RandomRealAtw>;
using DeterministicRpts = Rpts<DeterministicAtw>;

// Per-root lowest-id BFS tiebreaking: a natural scheme a routing table
// designer might pick, which is not restorable (Figure 1's bad case).
class ArbitraryRpts final : public IRpts {
 public:
  explicit ArbitraryRpts(const Graph& g) : g_(&g) {}

  const Graph& graph() const override { return *g_; }
  std::string name() const override { return "arbitrary-bfs"; }

  Spt spt(Vertex root, const FaultSet& faults = {},
          Direction dir = Direction::kOut) const override;

  // Lowest-id BFS is a pure function of the topology, so the rebound view is
  // bit-identical at the snapshot's epoch.
  std::unique_ptr<IRpts> snapshot_view(const Graph& frozen) const override {
    auto view = std::make_unique<ArbitraryRpts>(frozen);
    view->adopt_identity(*this);
    return view;
  }

 private:
  const Graph* g_;
};

// Convenience factory for the default (isolation-lemma) scheme.
inline std::unique_ptr<IsolationRpts> make_default_rpts(const Graph& g,
                                                        uint64_t seed) {
  // Scale the weight range down for very large graphs so path sums cannot
  // overflow: need (n - 1) * W < 2^62.
  int64_t w = int64_t{1} << 44;
  while (w > 1 &&
         static_cast<__int128>(g.num_vertices()) * w >= (__int128{1} << 62))
    w >>= 1;
  return std::make_unique<IsolationRpts>(g, IsolationAtw(seed, w));
}

}  // namespace restorable
