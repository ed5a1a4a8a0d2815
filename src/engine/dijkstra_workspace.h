// Reusable per-thread state for tiebroken SSSP, plus the workspace-based
// engine variant the batch engine runs.
//
// Exact trees (eps_q == 0) are a BFS by hop layer. Every arc of G* weighs
// 1 + r with |sum of r| < 1/2 along any path (core/perturbation.h), so the
// hop count always dominates and the tiebroken distance of a layer-(k+1)
// vertex v is min over its layer-k in-neighbors u of tie(u) + r(u, v). One
// FIFO sweep, with the workspace's touched_ list as the queue (discovery
// order is layer order), settles hops, tie and parent together: the first
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
// The (1+eps) tier (eps_q > 0) keeps an indexed 4-ary heap with
// decrease-key over the workspace's sparse state (done/open marks, heap
// positions, heap storage), reset in O(touched) between runs.
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
  // Vertex states during an epsilon-tier run.
  static constexpr uint8_t kUnseen = 0;
  static constexpr uint8_t kOpen = 1;   // in the heap with a tentative label
  static constexpr uint8_t kDone = 2;   // settled

  static constexpr uint32_t kNoPos = static_cast<uint32_t>(-1);

  // Grows (never shrinks) the flat arrays to cover n vertices and restores
  // the clean-state invariant if a previous run died mid-way.
  void ensure(Vertex n) {
    if (dirty_) {
      state_.assign(state_.size(), kUnseen);
      heap_pos_.assign(heap_pos_.size(), kNoPos);
      heap_.clear();
      touched_.clear();
      dirty_ = false;
    }
    if (state_.size() < n) {
      state_.resize(n, kUnseen);
      heap_pos_.resize(n, kNoPos);
    }
  }

  std::vector<uint8_t> state_;
  std::vector<uint32_t> heap_pos_;
  std::vector<Vertex> heap_;
  // Epsilon tier: every vertex given a label, for the O(touched) reset.
  // Exact tier: the BFS queue.
  std::vector<Vertex> touched_;
  // Exact tier: vertices whose best candidates tied (may repeat).
  std::vector<Vertex> tied_;
  bool dirty_ = false;
};

// Per-(thread, policy) workspace. Pool workers are long-lived, so this is
// what makes workspace reuse span whole batches (and successive batches).
template <typename Policy>
DijkstraWorkspace<Policy>& thread_workspace() {
  thread_local DijkstraWorkspace<Policy> ws;
  return ws;
}

// Work one tiebroken_sssp_into run did: vertices settled (every reached
// vertex settles once) and arcs examined. The exact tier counts its sweep
// plus the equal-tie rescans; the epsilon tier counts its relaxation sweep.
struct SsspWork {
  uint64_t settled = 0;
  uint64_t arcs = 0;
};

// The exact tier: one hop-layer sweep (see the header comment). res must
// come in reset (every hop kUnreachable, every parent kNoVertex).
template <typename Policy>
SsspWork layered_sssp_into(const Graph& g, const Policy& policy, Vertex root,
                           const FaultSet& faults, Direction dir,
                           DijkstraWorkspace<Policy>& ws,
                           DijkstraResult<Policy>& res) {
  using Tie = typename Policy::Tie;
  auto& hops = res.spt.mutable_hops();
  auto& parent = res.spt.mutable_parent();
  auto& parent_edge = res.spt.mutable_parent_edge();
  auto& tie = res.tie;
  auto& queue = ws.touched_;
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

// The (1+eps) tier over the indexed 4-ary heap. An open vertex is only
// re-labeled when the candidate beats its current label by more than the
// (1+eps) slack (epsilon_improves in core/spt.h), so the settled labels
// satisfy d_true <= d <= (1+eps)^d_true * d_true while the search touches
// (and re-heaps) far fewer vertices. Parents are assigned inline at
// relaxation time from the just-popped, hence settled, source; a settled
// label may exceed the length of its own parent chain (the chain only
// certifies SOME path of length <= hops[v]), but parent chains still
// strictly descend in hops, so path_to / top_order stay valid. Tie
// accumulation keeps the pop order deterministic. res must come in reset.
template <typename Policy>
SsspWork epsilon_sssp_into(const Graph& g, const Policy& policy, Vertex root,
                           const FaultSet& faults, Direction dir,
                           DijkstraWorkspace<Policy>& ws,
                           DijkstraResult<Policy>& res, uint32_t eps_q) {
  ws.ensure(g.num_vertices());
  ws.dirty_ = true;

  auto& state = ws.state_;
  auto& heap_pos = ws.heap_pos_;
  auto& heap = ws.heap_;
  // Raw fat-form arrays, bound once outside the hot loop: the relaxation
  // sweep below stays free of per-access form dispatch, and every id it
  // touches is 32-bit (Vertex/EdgeId/heap positions), so million-node
  // graphs run the same loop with half the index traffic of size_t code.
  auto& hops = res.spt.mutable_hops();
  auto& parent = res.spt.mutable_parent();
  auto& parent_edge = res.spt.mutable_parent_edge();
  auto& tie = res.tie;
  SsspWork work;

  // (hops, tie) lexicographic order on tentative labels.
  auto less = [&](Vertex a, Vertex b) {
    if (hops[a] != hops[b]) return hops[a] < hops[b];
    return policy.compare(tie[a], tie[b]) < 0;
  };
  auto place = [&](Vertex v, uint32_t pos) {
    heap[pos] = v;
    heap_pos[v] = pos;
  };
  auto sift_up = [&](uint32_t pos) {
    const Vertex v = heap[pos];
    while (pos > 0) {
      const uint32_t par = (pos - 1) / 4;
      if (!less(v, heap[par])) break;
      place(heap[par], pos);
      pos = par;
    }
    place(v, pos);
  };
  auto sift_down = [&](uint32_t pos) {
    const Vertex v = heap[pos];
    const uint32_t size = static_cast<uint32_t>(heap.size());
    for (;;) {
      uint32_t best = pos;
      Vertex best_v = v;
      const uint32_t first = 4 * pos + 1;
      const uint32_t last = first + 4 < size ? first + 4 : size;
      for (uint32_t c = first; c < last; ++c)
        if (less(heap[c], best_v)) {
          best = c;
          best_v = heap[c];
        }
      if (best == pos) break;
      place(best_v, pos);
      pos = best;
    }
    place(v, pos);
  };
  auto push = [&](Vertex v) {
    heap.push_back(v);
    heap_pos[v] = static_cast<uint32_t>(heap.size() - 1);
    sift_up(heap_pos[v]);
  };
  auto pop_min = [&] {
    const Vertex top = heap[0];
    heap_pos[top] = DijkstraWorkspace<Policy>::kNoPos;
    const Vertex last = heap.back();
    heap.pop_back();
    if (!heap.empty()) {
      place(last, 0);
      sift_down(0);
    }
    return top;
  };

  hops[root] = 0;
  state[root] = DijkstraWorkspace<Policy>::kOpen;
  ws.touched_.push_back(root);
  push(root);

  while (!heap.empty()) {
    const Vertex v = pop_min();
    state[v] = DijkstraWorkspace<Policy>::kDone;
    const std::span<const Arc> arcs = g.arcs(v);
    work.arcs += arcs.size();
    for (const Arc& a : arcs) {
      const Vertex to = a.to;
      if (state[to] == DijkstraWorkspace<Policy>::kDone ||
          faults.contains(a.edge))
        continue;
      // Orientation of the perturbation for this hop: travelling v -> to for
      // kOut trees, to -> v for kIn trees (reversed search).
      const bool travel_forward =
          dir == Direction::kOut ? a.forward : !a.forward;
      const int32_t h = hops[v] + 1;
      if (state[to] == DijkstraWorkspace<Policy>::kUnseen) {
        hops[to] = h;
        tie[to] = tie[v];
        policy.accumulate(tie[to], g.label(a.edge), travel_forward);
        parent[to] = v;
        parent_edge[to] = a.edge;
        state[to] = DijkstraWorkspace<Policy>::kOpen;
        ws.touched_.push_back(to);
        push(to);
        continue;
      }
      // v was just popped, so its label is final and the inline parent
      // assignment is sound (no later relaxation can touch v).
      if (!epsilon_improves(hops[to], h, eps_q)) continue;
      hops[to] = h;
      tie[to] = tie[v];
      policy.accumulate(tie[to], g.label(a.edge), travel_forward);
      parent[to] = v;
      parent_edge[to] = a.edge;
      sift_up(heap_pos[to]);
    }
  }
  // The heap drains completely, so every touched vertex was settled.
  work.settled = ws.touched_.size();

  // O(touched) reset, restoring the clean-state invariant for the next run.
  for (const Vertex v : ws.touched_) {
    state[v] = DijkstraWorkspace<Policy>::kUnseen;
    heap_pos[v] = DijkstraWorkspace<Policy>::kNoPos;
  }
  ws.touched_.clear();
  ws.dirty_ = false;
  return work;
}

// Workspace-based tiebroken SSSP; drop-in equivalent of tiebroken_sssp
// (same graph/policy/root/faults/dir contract, same result layout).
// eps_q == 0 runs the exact layered sweep, bit-identical to the reference;
// eps_q > 0 runs the relaxed (1+eps) heap search. Returns the work done.
template <typename Policy>
SsspWork tiebroken_sssp_into(const Graph& g, const Policy& policy,
                             Vertex root, const FaultSet& faults,
                             Direction dir, DijkstraWorkspace<Policy>& ws,
                             DijkstraResult<Policy>& res, uint32_t eps_q = 0) {
  const Vertex n = g.num_vertices();
  res.spt.root = root;
  res.spt.dir = dir;
  res.spt.reset(n);
  res.spt.attach_endpoints(g.shared_endpoints());
  res.tie.assign(n, policy.zero());
  return eps_q ? epsilon_sssp_into(g, policy, root, faults, dir, ws, res,
                                   eps_q)
               : layered_sssp_into(g, policy, root, faults, dir, ws, res);
}

}  // namespace restorable
