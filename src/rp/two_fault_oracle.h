// Dual-failure subset distance oracle -- Definition 17 (f = 2) turned into
// a data structure.
//
// 2-restorability says: under any fault set F, |F| <= 2, some replacement
// shortest s1 ~> s2 path is pi(s1, x | F') o reverse(pi(s2, x | F')) for a
// PROPER subset F' of F. All such trees are indexed by (source, at most one
// fault), so it suffices to precompute, per source s in S:
//   * the base tree pi(s, . | {}), and
//   * one tree pi(s, . | {e}) per base-tree edge e (stability: faults off
//     the tree change nothing).
//
// Storage. The oracle owns flat per-source tables and keeps no tree
// handles. A source's table is one contiguous buffer of slots: slot 0 is
// the base tree, slot k the tree under the k-th base-tree edge, and a
// dense edge -> slot index sends off-tree edges to slot 0 (stability).
// Each slot holds four u32 columns over the n vertices: hops, pre-order
// rank `pre`, subtree end `last` and parent edge -- 16 bytes per vertex
// per slot, Theta(sigma n^2) bytes in all.
//
// Query cost. |F| <= 1 is one table lookup. For |F| = 2, each fault
// f = (u, v) maps, per tree, to the endpoint c whose parent edge is f; the
// midpoints whose root path uses f are then exactly the pre-order interval
// [pre[c], last[c]]. One fused loop over the n midpoints per distinct tree
// pair (at most 3) takes min hops1 + hops2 outside the intervals: O(n)
// work, no allocation, no hashing. The endpoints s1 and s2 are tried as
// midpoints first, and the scan stops early once it meets the lower bound
// max_f dist_{G \ {f}}(s1, s2).
//
// Construction submits the sigma base trees as one engine batch, then the
// Theta(sigma n) fault trees as small chunked batches on the engine's
// pool: each pool task computes one chunk (the nested batch runs inline on
// its worker), flattens it into its slots and drops the trees, so only a
// few trees per thread are alive at a time. Preprocessing is therefore
// Theta(sigma n) SSSP runs plus O(n) flattening per tree.
//
// This is the natural f = 2 sequel to Algorithm 1's single-fault subset-rp,
// assembled from the paper's ingredients (Theorem 19 + Definition 17).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/rpts.h"
#include "graph/graph.h"

namespace restorable {

class TwoFaultSubsetOracle {
 public:
  // Requests resolve through `cache` when one is attached -- the (root, {})
  // and (root, {e}) keys here are exactly what the serving path and the
  // preserver exploration request, so oracles built on a served scheme
  // preheat (and reuse) the shared store. The oracle copies what it needs
  // into its own tables and shares no tree memory with the cache.
  // `engine` (nullptr = shared engine) computes the trees and flattens
  // them. Throws std::invalid_argument for a source >= num_vertices();
  // repeated sources are stored once.
  TwoFaultSubsetOracle(const IRpts& pi, std::span<const Vertex> sources,
                       const BatchSsspEngine* engine = nullptr,
                       SptCache* cache = nullptr);

  // dist_{G \ F}(s1, s2) for s1, s2 in S and |F| <= 2 (base-graph edge
  // ids); kUnreachable if disconnected or if s1 or s2 is not in S. Ids at
  // or beyond the graph's edge count at construction name no edge and are
  // ignored. Exactness for |F| = 2 is the 2-restorability guarantee;
  // |F| <= 1 reduces to 1-restorability. Throws std::invalid_argument for
  // |F| >= 3, which the stored trees cannot answer exactly.
  int32_t query(Vertex s1, Vertex s2, const FaultSet& faults) const;

  size_t trees_stored() const;

 private:
  // One source's flat table: `slots` slots of 4 * n u32 columns each (the
  // column layout is private to two_fault_oracle.cc).
  struct SourceTable {
    uint32_t slots = 0;
    std::unique_ptr<uint32_t[]> data;
    std::vector<uint32_t> slot_of;  // edge id -> slot (0 = base tree)
  };

  Vertex n_ = 0;
  std::shared_ptr<const std::vector<Edge>> endpoints_;
  std::vector<uint32_t> table_of_;  // vertex -> index into tables_
  std::vector<SourceTable> tables_;
};

}  // namespace restorable
