// Shortest-path tree produced by the tiebroken Dijkstra over G* \ F.
//
// Because the selected paths are *unique* shortest paths of the reweighted
// directed graph, the union of the selected root-to-everywhere paths is a
// tree (consistency; see Section 2 of the paper), and a parent array
// represents the whole tiebreaking scheme restricted to one root and one
// fault set.
//
// Storage forms. A tree exists in one of two layouts behind one read API:
//  * fat (construction form): three n-sized SoA arrays
//    (int32 hops, u32 parent, u32 parent_edge) -- what the engine's
//    workspace Dijkstra writes into and what the repair paths mutate;
//  * compact (publication form): two arrays truncated at the last reachable
//    vertex -- u16 hops (0xFFFF = unreachable) and u32 parent_edge -- plus a
//    shared pointer to the endpoint table of the graph the tree was built
//    on. parent(v) is derived in O(1) as the other endpoint of
//    parent_edge(v), so the explicit parent array is dropped entirely:
//    6 bytes/vertex instead of 12. Every tree the serving stack publishes
//    goes through publish_spt() below, which compacts it whenever it can;
//    trees that cannot compact (no endpoint table, a path of more than
//    65534 hops, a stale table) are published fat. Readers never notice
//    because all access goes through the accessors below, and SptHandle
//    ownership rules are unchanged (immutable, eviction-safe).
// The endpoint table stays valid for the life of the tree because Graph
// edge slots are append-only and keep their stored endpoint order across
// tombstone flaps (see Graph::shared_endpoints).
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace restorable {

// Orientation of the selected paths relative to the root. kOut: the tree
// encodes pi(root, v) for every v (paths leave the root; arc weights are
// read in travel direction root -> v). kIn: the tree encodes pi(v, root),
// i.e. shortest paths *towards* the root in G*, equivalently an out-tree of
// the reversed reweighted graph. The two differ because r is antisymmetric.
enum class Direction : uint8_t { kOut, kIn };

// Fixed-point denominator of the quantized approximation parameter: a
// request's eps_q encodes epsilon = eps_q / kEpsilonDenom. Quantizing keys
// the approximate tier exactly -- two callers asking for "about 0.1" land on
// the same cache entry -- and keeps the relaxed Dijkstra improvement test in
// exact integer arithmetic (no float compare on the hot path).
inline constexpr uint32_t kEpsilonDenom = 1024;

// Floor-quantization: the effective epsilon never exceeds the requested one,
// so the user-facing (1+epsilon)^depth stretch bound stays valid verbatim.
// Clamped to epsilon <= 16 (beyond that every test degenerates anyway).
inline uint32_t quantize_epsilon(double epsilon) {
  if (!(epsilon > 0.0)) return 0;
  double scaled = epsilon * static_cast<double>(kEpsilonDenom);
  const double cap = 16.0 * static_cast<double>(kEpsilonDenom);
  if (scaled > cap) scaled = cap;
  return static_cast<uint32_t>(scaled);
}

inline double dequantize_epsilon(uint32_t eps_q) {
  return static_cast<double>(eps_q) / static_cast<double>(kEpsilonDenom);
}

// The relaxed improvement test shared by the engine's epsilon-mode Dijkstra,
// the serving tier's epsilon survival / repair predicates, and the tests:
// a candidate hop count improves the current label iff
// cur > (1 + epsilon) * cand, evaluated exactly over integers. eps_q == 0
// degenerates to the strict test cur > cand.
inline bool epsilon_improves(int32_t cur_hops, int32_t cand_hops,
                             uint32_t eps_q) {
  if (cur_hops == kUnreachable) return true;
  return static_cast<int64_t>(cur_hops) * kEpsilonDenom >
         static_cast<int64_t>(kEpsilonDenom + eps_q) *
             static_cast<int64_t>(cand_hops);
}

// One unit of SSSP work: the scheme restricted to `root` under `faults`,
// oriented by `dir`. Batches of these are what BatchSsspEngine (and the
// IRpts::spt_batch interface) consume; results always come back in request
// order, independent of scheduling.
//
// eps_q > 0 asks for the approximate tier: the engine runs the relaxed
// (1+eps) improvement test, so the returned labels satisfy
// d_true <= d <= (1+eps)^d_true * d_true per vertex. eps_q == 0 (the
// default) is the exact tier -- bit-identical to the pre-epsilon engine.
struct SsspRequest {
  Vertex root = kNoVertex;
  FaultSet faults{};
  Direction dir = Direction::kOut;
  uint32_t eps_q = 0;  // quantized epsilon (kEpsilonDenom fixed-point)
};

// Composite identity of a tree producer at a point in time: which scheme
// instance (graph + policy; see IRpts::scheme_id()) at which topology epoch
// (Graph::epoch()). Trees are deterministic functions of
// (version, root, faults, dir); a graph mutation bumps the epoch instead of
// abandoning the scheme, so unaffected trees can be carried forward across
// the bump (SptCache::advance_epoch) rather than recomputed.
struct SchemeVersion {
  uint64_t scheme_id = 0;
  uint64_t epoch = 0;

  friend bool operator==(const SchemeVersion&, const SchemeVersion&) = default;
};

class Spt {
 public:
  // Compact-form hop sentinel: hop counts at or above it cannot be stored
  // compactly (compact() declines; see below).
  static constexpr uint16_t kCompactUnreachable = 0xFFFF;

  Vertex root = kNoVertex;
  Direction dir = Direction::kOut;

  // ---- Read API (identical answers in both forms) -------------------------

  Vertex num_vertices() const {
    return compact_ ? n_ : static_cast<Vertex>(hops_.size());
  }
  bool is_compact() const { return compact_; }

  // Hop distance root->v (kUnreachable if disconnected from the root in
  // G \ F).
  int32_t hops(Vertex v) const {
    if (!compact_) return hops_[v];
    if (v >= chops_.size()) return kUnreachable;
    const uint16_t h = chops_[v];
    return h == kCompactUnreachable ? kUnreachable : static_cast<int32_t>(h);
  }

  // The neighbor of v on the selected path one step closer to the root;
  // kNoVertex for the root and unreachable vertices. In the compact form
  // this is derived from the parent edge's endpoints.
  Vertex parent(Vertex v) const {
    if (!compact_) return parent_[v];
    const EdgeId pe = parent_edge(v);
    if (pe == kNoEdge) return kNoVertex;
    const Edge& ed = (*endpoints_)[pe];
    return ed.u == v ? ed.v : ed.u;
  }

  // The (local) edge id connecting v to parent(v); kNoEdge for the root and
  // unreachable vertices.
  EdgeId parent_edge(Vertex v) const {
    if (!compact_) return parent_edge_[v];
    return v < cpe_.size() ? cpe_[v] : kNoEdge;
  }

  bool reachable(Vertex v) const { return hops(v) != kUnreachable; }

  // The selected path between root and v, oriented root -> v for kOut trees
  // and v -> root for kIn trees. Empty if unreachable.
  Path path_to(Vertex v) const;

  // Whether any tree path uses edge e (in either orientation): one O(n)
  // scan of the parent edges. This is the stability test driving removal
  // carry-forward (IRpts::tree_survives).
  bool uses_edge(EdgeId e) const;

  // Whether the selected path root~v uses edge e (in either orientation):
  // an O(depth) parent-chain walk, false for the root and unreachable v.
  // This is the per-query stability test (Definition 13): a fault off the
  // selected path leaves pi(root, v) -- hence its length -- unchanged.
  bool path_uses_edge(Vertex v, EdgeId e) const;

  // For every vertex v: whether the tree path root~v uses edge e (in either
  // orientation). One O(n) pass via parent propagation.
  std::vector<char> paths_using_edge(EdgeId e) const;

  // Same, for any edge in `faults`.
  std::vector<char> paths_using_any(const FaultSet& faults) const;

  // All tree edges (parent edges of reachable non-root vertices), deduped.
  std::vector<EdgeId> tree_edges() const;

  // Vertices in root-to-leaf topological order (increasing hops, ties by
  // increasing vertex id); includes only reachable vertices. O(n): a
  // counting sort by hops.
  std::vector<Vertex> top_order() const;

  // Heap footprint of this tree: object header plus the *reserved* storage
  // (capacity, not size) of every owned array, fat and compact alike -- the
  // exact bytes the serving cache's budget must account. The shared endpoint
  // table is deliberately excluded: it is owned by the graph and shared by
  // every tree of the same topology, so charging it per tree would overcount
  // it thousands of times.
  size_t memory_bytes() const;

  // ---- Fat-form builder API ----------------------------------------------
  //
  // The engine's Dijkstra and the repair paths construct trees in the fat
  // form: reset() re-initializes to n all-unreachable vertices, and the
  // mutable_* accessors hand out the raw arrays (bind them once outside the
  // hot loop). Calling a mutable_* accessor on a compact tree is a contract
  // violation (asserted); mutate a thawed() copy instead.

  // Fat re-initialization: n vertices, every label kUnreachable /
  // kNoVertex / kNoEdge. Drops any compact storage and the attached
  // endpoint table (builders re-attach after reset).
  void reset(Vertex n);

  std::vector<int32_t>& mutable_hops() {
    assert(!compact_);
    return hops_;
  }
  std::vector<Vertex>& mutable_parent() {
    assert(!compact_);
    return parent_;
  }
  std::vector<EdgeId>& mutable_parent_edge() {
    assert(!compact_);
    return parent_edge_;
  }

  // ---- Compaction ---------------------------------------------------------

  // Attaches the endpoint table of the graph the tree was computed on
  // (Graph::shared_endpoints()), which is what makes the tree compactible.
  // The engine entry points attach it at build time; a tree built without
  // one (hand-rolled test trees, the CONGEST reconstruction) simply stays
  // fat.
  void attach_endpoints(std::shared_ptr<const std::vector<Edge>> endpoints) {
    endpoints_ = std::move(endpoints);
  }
  const std::shared_ptr<const std::vector<Edge>>& endpoints() const {
    return endpoints_;
  }

  // In-place fat -> compact conversion. Returns false (tree unchanged) when
  // the tree cannot be stored compactly: no endpoint table attached, some
  // hop count >= kCompactUnreachable (a >65534-hop path cannot fit u16), or
  // a parent-edge id the attached table cannot describe (stale table --
  // callers keep the fat form, correctness never depends on compaction).
  // Idempotent: returns true on an already-compact tree. The compact arrays
  // are truncated at the last reachable vertex and sized exactly
  // (capacity == size), so memory_bytes() drops to
  // sizeof(Spt) + 6 bytes per stored vertex.
  bool compact();

  // A compact copy of this tree, built directly from the fat arrays without
  // copying them first -- the publication path for trees that are already
  // behind a shared handle (publish_spt(SptHandle); nothing may mutate
  // through one). Falls back to a plain copy when the tree cannot compact,
  // same conditions as compact().
  Spt compacted() const;

  // A fat copy of this tree (plain copy if already fat). This is what the
  // repair paths start from when the cache hands them a compact tree.
  Spt thawed() const;

  // In-place fat -> compact conversion that reuses a previous compact image
  // instead of re-encoding all n labels: `base` is the compact tree this fat
  // tree was thawed from, and `touched` lists every vertex whose label the
  // caller may have changed since (a superset is fine; order and duplicates
  // do not matter). The compact arrays start as a copy of base's and only
  // the touched entries are re-encoded, so the conversion costs
  // O(stored + |touched|) trivially-copyable bytes instead of compact()'s
  // per-vertex branchy scan -- the repair fast path's publication step.
  // Result is identical to calling compact() on this tree (same truncation,
  // exact-sized arrays). Returns false (tree unchanged, stays fat) when the
  // patched labels cannot be stored compactly (hop count >= 0xFFFF, parent
  // edge beyond the attached endpoint table, no table attached) or the
  // preconditions do not hold (base not compact, vertex-count mismatch).
  bool compact_from(const Spt& base, std::span<const Vertex> touched);

 private:
  bool compact_ = false;
  Vertex n_ = 0;  // vertex count; authoritative only in the compact form
  // Fat form (empty when compact_):
  std::vector<int32_t> hops_;
  std::vector<Vertex> parent_;
  std::vector<EdgeId> parent_edge_;
  // Compact form (empty when fat), truncated at last reachable vertex + 1:
  std::vector<uint16_t> chops_;  // kCompactUnreachable = unreachable
  std::vector<EdgeId> cpe_;      // kNoEdge for root / unreachable
  // Endpoint table for deriving parent(v) in the compact form; shared with
  // the graph and every other tree of the same topology.
  std::shared_ptr<const std::vector<Edge>> endpoints_;
};

// The canonical tree currency of the library. Trees are deterministic
// functions of (scheme, root, faults, dir) and are therefore shared, never
// copied: IRpts::spt_batch hands them out as SptHandle, the serving cache
// (serve/spt_cache.h) retains the same pointers, and consumers that keep
// trees beyond construction (sourcewise-rp) hold handles.
// Ownership rules: the pointee is immutable -- never mutate through a
// handle, never const_cast; a handle stays valid across cache evictions
// (eviction only drops the cache's reference); equality of handles implies
// bit-identical trees, but distinct handles may also be bit-identical
// (e.g. computed before and after an eviction). The storage form (fat or
// compact) is fixed before publication and never changes behind a handle.
using SptHandle = std::shared_ptr<const Spt>;

// The one publication rule of the serving stack: compact the tree if it
// can (see compact()), then share it. Every cache admission point goes
// through one of these overloads. An owned tree is compacted in place.
inline SptHandle publish_spt(Spt&& tree) {
  tree.compact();
  return std::make_shared<const Spt>(std::move(tree));
}

// A shared tree is never mutated through its handle: a compacted() copy is
// swapped in only when compaction succeeds, else the same handle returns.
inline SptHandle publish_spt(SptHandle tree) {
  if (tree->is_compact() || !tree->endpoints()) return tree;
  Spt compact = tree->compacted();
  if (!compact.is_compact()) return tree;
  return std::make_shared<const Spt>(std::move(compact));
}

}  // namespace restorable
