// Tiebroken Dijkstra over the reweighted directed graph G* \ F.
//
// Weights are 1 + r(arc) with r an antisymmetric tiebreaking perturbation
// (see core/perturbation.h), so distances are (hops, tie) pairs compared
// lexicographically and all arithmetic is exact for the integer and
// deterministic policies.
//
// This is the "single call to any APSP/SSSP algorithm that can handle
// directed weighted input graphs" the paper mentions below Theorem 2 --
// specialized to one source, since every application in the paper consumes
// per-root shortest path trees.
#pragma once

#include <queue>
#include <vector>

#include "core/perturbation.h"
#include "core/spt.h"
#include "graph/graph.h"

namespace restorable {

// Full result of one tiebroken SSSP run: the Spt plus the exact perturbed
// distances (needed by the replacement-path algorithms, which compare
// candidate path lengths exactly).
template <typename Policy>
struct DijkstraResult {
  Spt spt;
  std::vector<typename Policy::Tie> tie;  // accumulated perturbation per vertex
};

// Establishes the parent of one settled vertex v != root: the first arc of
// arcs(v) whose in-neighbor u satisfies dist(u) + w(u, v) == dist(v), which
// -- distances being exact and unique -- is the unique shortest path tree's
// parent edge (or, when a policy's ties collide, the first tight arc).
// `done(u)` must report whether u was settled; res.spt.hops / res.tie must
// hold the settled labels. Returns the number of arcs examined.
//
// Shared between the reference implementation below (every settled vertex)
// and the layered engine (engine/dijkstra_workspace.h, only vertices whose
// best candidates tied) so the two cannot drift.
template <typename Policy, typename DoneFn>
size_t establish_sssp_parent(const Graph& g, const Policy& policy, Vertex v,
                             const FaultSet& faults, Direction dir,
                             DoneFn&& done, DijkstraResult<Policy>& res) {
  using Tie = typename Policy::Tie;
  auto& hops = res.spt.mutable_hops();
  auto& parent = res.spt.mutable_parent();
  auto& parent_edge = res.spt.mutable_parent_edge();
  bool found = false;
  Tie best{};
  size_t scanned = 0;
  for (const Arc& a : g.arcs(v)) {
    ++scanned;
    const Vertex u = a.to;
    if (!done(u) || faults.contains(a.edge)) continue;
    if (hops[u] + 1 != hops[v]) continue;
    const bool travel_forward =
        dir == Direction::kOut ? !a.forward : a.forward;  // u -> v travel
    Tie t = res.tie[u];
    policy.accumulate(t, g.label(a.edge), travel_forward);
    if (policy.compare(t, res.tie[v]) == 0) {
      // Exact match with the settled label: this arc is on the unique
      // shortest path. (There can be only one by uniqueness.)
      parent[v] = u;
      parent_edge[v] = a.edge;
      break;
    }
    if (!found || policy.compare(t, best) < 0) {
      // Fallback tracking in case exact match is never hit (should not
      // happen with exact policies; protects the long-double policy from
      // rounding).
      best = t;
      parent[v] = u;
      parent_edge[v] = a.edge;
      found = true;
    }
  }
  return scanned;
}

// Runs tiebroken Dijkstra from `root` on g \ faults.
//
// dir == kOut: computes pi(root, v) for all v; arcs are traversed in their
// natural direction, accumulating r(arc).
// dir == kIn: computes pi(v, root) for all v, by searching the reversed
// graph: an arc v->u in the search corresponds to travel u->v in G*, so the
// accumulated perturbation is r(u, v) = the arc value with the *flipped*
// orientation flag.
template <typename Policy>
DijkstraResult<Policy> tiebroken_sssp(const Graph& g, const Policy& policy,
                                      Vertex root, const FaultSet& faults,
                                      Direction dir) {
  const Vertex n = g.num_vertices();
  DijkstraResult<Policy> res;
  res.spt.root = root;
  res.spt.dir = dir;
  res.spt.reset(n);
  res.spt.attach_endpoints(g.shared_endpoints());
  res.tie.assign(n, policy.zero());
  auto& hops = res.spt.mutable_hops();

  using Tie = typename Policy::Tie;
  struct QItem {
    int32_t hops;
    Tie tie;
    Vertex v;
  };
  auto cmp = [&policy](const QItem& a, const QItem& b) {
    if (a.hops != b.hops) return a.hops > b.hops;
    return policy.compare(a.tie, b.tie) > 0;
  };
  std::priority_queue<QItem, std::vector<QItem>, decltype(cmp)> pq(cmp);
  std::vector<char> done(n, 0);

  hops[root] = 0;
  pq.push({0, policy.zero(), root});
  while (!pq.empty()) {
    QItem top = pq.top();
    pq.pop();
    const Vertex v = top.v;
    if (done[v]) continue;
    done[v] = 1;
    hops[v] = top.hops;
    res.tie[v] = top.tie;
    for (const Arc& a : g.arcs(v)) {
      if (done[a.to] || faults.contains(a.edge)) continue;
      // Orientation of the perturbation for this hop: travelling v -> a.to
      // for kOut trees, a.to -> v for kIn trees (reversed search).
      const bool travel_forward =
          dir == Direction::kOut ? a.forward : !a.forward;
      Tie t = top.tie;
      policy.accumulate(t, g.label(a.edge), travel_forward);
      const int32_t h = top.hops + 1;
      const int32_t old_h = hops[a.to];
      // Lazy-deletion heap: push improved tentative labels; stale entries
      // are skipped by the `done` check. We keep a cheap dominance filter on
      // hop count to bound heap growth.
      if (old_h != kUnreachable && old_h < h) continue;
      pq.push({h, std::move(t), a.to});
      if (old_h == kUnreachable || h < old_h) hops[a.to] = h;
    }
  }
  // Second pass establishes parents from the settled labels. We recompute
  // rather than track during relaxation so that `hops`/`tie` hold only
  // *settled* values (the relaxation loop above overwrites hops with
  // tentative labels; fix them first).
  for (Vertex v = 0; v < n; ++v)
    if (!done[v]) hops[v] = kUnreachable;
  for (Vertex v = 0; v < n; ++v)
    if (v != root && done[v])
      establish_sssp_parent(g, policy, v, faults, dir,
                            [&done](Vertex u) { return done[u] != 0; }, res);
  return res;
}

}  // namespace restorable
