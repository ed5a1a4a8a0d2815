// Reusable per-thread state for tiebroken SSSP, plus the workspace-based
// engine variant the batch engine runs.
//
// Trees are a BFS by hop layer. Every arc of G* weighs
// 1 + r with |sum of r| < 1/2 along any path (core/perturbation.h), so the
// hop count always dominates and the tiebroken distance of a layer-(k+1)
// vertex v is min over its layer-k in-neighbors u of tie(u) + r(u, v). One
// FIFO sweep, with the workspace's queue_ (discovery order is layer order),
// settles hops, tie and parent together: the first
// discoverer of v sets all three, and a later candidate from the same layer
// replaces them only if its tie is strictly smaller. No heap and no second
// parent pass run.
//
// Output equivalence with the reference implementation (core/dijkstra.h):
// the settled labels are the same minima, and the parent is the reference's
// "first tight arc of arcs(v)" whenever that arc is unique. When two
// candidates' ties compare equal (IsolationAtw collisions at small W,
// RandomRealAtw rounding) the vertex goes on a short list, and after the
// sweep its parent is re-derived by the reference's own rule
// (establish_sssp_parent, shared with core/dijkstra.h). Any two candidates
// that attain the minimum meet in the sweep's comparison -- the later one
// sees a best no larger than itself -- so every collision that can change
// the parent is listed. Results are therefore element-wise identical,
// hops, parent, parent_edge and tie; tests/engine_test.cc asserts this.
//
// Approximate (1+eps) requests get this same exact tree: an exact tree
// meets the (1+eps) contract (core/rpts.h, invariant F) at every eps, so
// eps_q plays no part here. It acts only in cache keys, survival and repair.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/dijkstra.h"
#include "graph/graph.h"

namespace restorable {

template <typename Policy>
class DijkstraWorkspace {
 public:
  // The BFS queue; discovery order is layer order.
  std::vector<Vertex> queue_;
  // Vertices whose best candidates tied (may repeat).
  std::vector<Vertex> tied_;
};

// Per-(thread, policy) workspace. Pool workers are long-lived, so this is
// what makes workspace reuse span whole batches (and successive batches).
template <typename Policy>
DijkstraWorkspace<Policy>& thread_workspace() {
  thread_local DijkstraWorkspace<Policy> ws;
  return ws;
}

// Work one tiebroken_sssp_into run did: vertices settled (every reached
// vertex settles once) and arcs examined: the sweep plus the equal-tie
// rescans.
struct SsspWork {
  uint64_t settled = 0;
  uint64_t arcs = 0;
};

// Workspace-based tiebroken SSSP; drop-in equivalent of tiebroken_sssp
// (same graph/policy/root/faults/dir contract, same result layout, the
// same tree bit for bit): one hop-layer sweep, see the header comment.
// Returns the work done.
template <typename Policy>
SsspWork tiebroken_sssp_into(const Graph& g, const Policy& policy,
                             Vertex root, const FaultSet& faults,
                             Direction dir, DijkstraWorkspace<Policy>& ws,
                             DijkstraResult<Policy>& res) {
  using Tie = typename Policy::Tie;
  const Vertex n = g.num_vertices();
  res.spt.root = root;
  res.spt.dir = dir;
  res.spt.reset(n);
  res.spt.attach_endpoints(g.shared_endpoints());
  res.tie.assign(n, policy.zero());
  auto& hops = res.spt.mutable_hops();
  auto& parent = res.spt.mutable_parent();
  auto& parent_edge = res.spt.mutable_parent_edge();
  auto& tie = res.tie;
  auto& queue = ws.queue_;
  auto& tied = ws.tied_;
  queue.clear();
  tied.clear();
  // In-trees search the reversed graph: an arc u -> to of the search is
  // travel to -> u in G*, so its perturbation takes the flipped orientation.
  const bool flip = dir == Direction::kIn;
  SsspWork work;

  hops[root] = 0;
  queue.push_back(root);
  for (size_t head = 0; head < queue.size(); ++head) {
    const Vertex u = queue[head];
    const int32_t h = hops[u] + 1;
    const std::span<const Arc> arcs = g.arcs(u);
    work.arcs += arcs.size();
    for (const Arc& a : arcs) {
      const Vertex to = a.to;
      // Settled in an earlier layer or in u's own: no tight arc from u.
      if (hops[to] != kUnreachable && hops[to] != h) continue;
      if (faults.contains(a.edge)) continue;
      Tie t = tie[u];
      policy.accumulate(t, g.label(a.edge), a.forward != flip);
      if (hops[to] == kUnreachable) {
        hops[to] = h;
        tie[to] = std::move(t);
        parent[to] = u;
        parent_edge[to] = a.edge;
        queue.push_back(to);
        continue;
      }
      const int c = policy.compare(t, tie[to]);
      if (c < 0) {
        tie[to] = std::move(t);
        parent[to] = u;
        parent_edge[to] = a.edge;
      } else if (c == 0) {
        tied.push_back(to);
      }
    }
  }
  work.settled = queue.size();

  // Equal-tie rule: a tied vertex's parent is the first tight arc of
  // arcs(v), exactly as the reference derives every parent.
  std::sort(tied.begin(), tied.end());
  tied.erase(std::unique(tied.begin(), tied.end()), tied.end());
  for (const Vertex v : tied)
    work.arcs += establish_sssp_parent(
        g, policy, v, faults, dir,
        [&hops](Vertex u) { return hops[u] != kUnreachable; }, res);
  queue.clear();
  return work;
}

}  // namespace restorable
