#include "core/spt.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace restorable {

Path Spt::path_to(Vertex v) const {
  if (!reachable(v)) return {};
  Path p;
  for (Vertex x = v; x != root; x = parent(x)) {
    p.vertices.push_back(x);
    p.edges.push_back(parent_edge(x));
  }
  p.vertices.push_back(root);
  if (dir == Direction::kOut) {
    std::reverse(p.vertices.begin(), p.vertices.end());
    std::reverse(p.edges.begin(), p.edges.end());
  }
  // kIn trees already list v first (path travels v -> root).
  return p;
}

bool Spt::uses_edge(EdgeId e) const {
  // Unreachable vertices hold kNoEdge, which never equals a real edge id.
  if (!compact_)
    return std::find(parent_edge_.begin(), parent_edge_.end(), e) !=
           parent_edge_.end();
  return std::find(cpe_.begin(), cpe_.end(), e) != cpe_.end();
}

bool Spt::path_uses_edge(Vertex v, EdgeId e) const {
  if (!reachable(v)) return false;
  for (Vertex x = v; x != root; x = parent(x))
    if (parent_edge(x) == e) return true;
  return false;
}

std::vector<char> Spt::paths_using_edge(EdgeId e) const {
  std::vector<char> uses(num_vertices(), 0);
  for (Vertex v : top_order()) {
    if (v == root) continue;
    uses[v] = uses[parent(v)] || parent_edge(v) == e;
  }
  return uses;
}

std::vector<char> Spt::paths_using_any(const FaultSet& faults) const {
  std::vector<char> uses(num_vertices(), 0);
  for (Vertex v : top_order()) {
    if (v == root) continue;
    uses[v] = uses[parent(v)] || faults.contains(parent_edge(v));
  }
  return uses;
}

std::vector<EdgeId> Spt::tree_edges() const {
  std::vector<EdgeId> out;
  const Vertex n = num_vertices();
  out.reserve(n);
  for (Vertex v = 0; v < n; ++v)
    if (v != root && reachable(v)) out.push_back(parent_edge(v));
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<Vertex> Spt::top_order() const {
  // Reachable vertices in id order, then a stable counting sort by hops, so
  // ties come out in vertex-id order.
  const Vertex n = num_vertices();
  std::vector<Vertex> by_id;
  by_id.reserve(n);
  int32_t max_h = 0;
  for (Vertex v = 0; v < n; ++v) {
    const int32_t h = hops(v);
    if (h == kUnreachable) continue;
    by_id.push_back(v);
    max_h = std::max(max_h, h);
  }
  if (max_h >= static_cast<int32_t>(n)) {
    // Only hand-built trees carry labels >= n (an SPT hop count is at most
    // n - 1); sort those instead of allocating an oversized histogram.
    std::stable_sort(by_id.begin(), by_id.end(),
                     [this](Vertex a, Vertex b) { return hops(a) < hops(b); });
    return by_id;
  }
  std::vector<uint32_t> start(static_cast<size_t>(max_h) + 2, 0);
  for (Vertex v : by_id) ++start[hops(v) + 1];
  for (size_t b = 1; b < start.size(); ++b) start[b] += start[b - 1];
  std::vector<Vertex> order(by_id.size());
  for (Vertex v : by_id) order[start[hops(v)]++] = v;
  return order;
}

size_t Spt::memory_bytes() const {
  // Both forms' reserved storage; the inactive form's vectors are
  // swap-released to capacity 0 by reset() / compact(), so the sum is exact
  // whichever form is live. The shared endpoint table is excluded (owned by
  // the graph, shared across trees).
  return sizeof(Spt) + hops_.capacity() * sizeof(int32_t) +
         parent_.capacity() * sizeof(Vertex) +
         parent_edge_.capacity() * sizeof(EdgeId) +
         chops_.capacity() * sizeof(uint16_t) + cpe_.capacity() * sizeof(EdgeId);
}

void Spt::reset(Vertex n) {
  if (compact_) {
    compact_ = false;
    std::vector<uint16_t>().swap(chops_);
    std::vector<EdgeId>().swap(cpe_);
  }
  n_ = 0;
  endpoints_.reset();
  hops_.assign(n, kUnreachable);
  parent_.assign(n, kNoVertex);
  parent_edge_.assign(n, kNoEdge);
}

bool Spt::compact() {
  if (compact_) return true;
  if (!endpoints_) return false;
  const Vertex n = static_cast<Vertex>(hops_.size());
  Vertex trunc = 0;  // one past the last reachable vertex
  for (Vertex v = 0; v < n; ++v) {
    const int32_t h = hops_[v];
    if (h == kUnreachable) continue;
    if (h >= static_cast<int32_t>(kCompactUnreachable)) return false;
    // A parent edge the attached table cannot describe (stale table from
    // before a fresh-slot append) would make the derived parent(v) read out
    // of bounds; stay fat rather than publish a corrupt tree.
    const EdgeId pe = parent_edge_[v];
    if (pe != kNoEdge && pe >= endpoints_->size()) return false;
    trunc = v + 1;
  }
  // Build into exactly-sized locals (capacity == size) so memory_bytes()
  // reports the true compact footprint, then swap-release the fat arrays.
  std::vector<uint16_t> chops(trunc);
  std::vector<EdgeId> cpe(trunc);
  for (Vertex v = 0; v < trunc; ++v) {
    const int32_t h = hops_[v];
    chops[v] =
        h == kUnreachable ? kCompactUnreachable : static_cast<uint16_t>(h);
    cpe[v] = parent_edge_[v];
  }
  chops_.swap(chops);
  cpe_.swap(cpe);
  n_ = n;
  compact_ = true;
  std::vector<int32_t>().swap(hops_);
  std::vector<Vertex>().swap(parent_);
  std::vector<EdgeId>().swap(parent_edge_);
  return true;
}

Spt Spt::compacted() const {
  if (compact_ || !endpoints_) return *this;
  const Vertex n = static_cast<Vertex>(hops_.size());
  Vertex trunc = 0;  // one past the last reachable vertex
  for (Vertex v = 0; v < n; ++v) {
    const int32_t h = hops_[v];
    if (h == kUnreachable) continue;
    if (h >= static_cast<int32_t>(kCompactUnreachable)) return *this;
    // Same guard as compact(): a parent edge beyond the attached table
    // cannot derive parent(v); keep the fat form.
    const EdgeId pe = parent_edge_[v];
    if (pe != kNoEdge && pe >= endpoints_->size()) return *this;
    trunc = v + 1;
  }
  Spt out;
  out.root = root;
  out.dir = dir;
  out.chops_.resize(trunc);
  out.cpe_.resize(trunc);
  for (Vertex v = 0; v < trunc; ++v) {
    const int32_t h = hops_[v];
    out.chops_[v] =
        h == kUnreachable ? kCompactUnreachable : static_cast<uint16_t>(h);
    out.cpe_[v] = parent_edge_[v];
  }
  out.n_ = n;
  out.compact_ = true;
  out.endpoints_ = endpoints_;
  return out;
}

bool Spt::compact_from(const Spt& base, std::span<const Vertex> touched) {
  if (compact_) return false;
  if (!base.compact_ || !endpoints_) return false;
  if (static_cast<Vertex>(hops_.size()) != base.n_) return false;
  // Untouched labels are storable by construction: base already stored them
  // compactly, and the endpoint table only ever grows (append-only edge
  // slots), so only the touched labels need the compact() guards. The
  // truncation point starts from base's and is (a) extended by any touched
  // vertex that is reachable beyond it, then (b) shrunk while the tail is
  // unreachable -- only touched vertices can have changed reachability, so
  // this lands on exactly the "one past last reachable" point compact()
  // computes from a full scan.
  Vertex trunc = static_cast<Vertex>(base.chops_.size());
  for (const Vertex v : touched) {
    const int32_t h = hops_[v];
    if (h == kUnreachable) continue;
    if (h >= static_cast<int32_t>(kCompactUnreachable)) return false;
    const EdgeId pe = parent_edge_[v];
    if (pe != kNoEdge && pe >= endpoints_->size()) return false;
    if (v + 1 > trunc) trunc = v + 1;
  }
  while (trunc > 0 && hops_[trunc - 1] == kUnreachable) --trunc;
  // Exactly-sized locals (capacity == size), same as compact(), so
  // memory_bytes() reports the true compact footprint.
  std::vector<uint16_t> chops(trunc, kCompactUnreachable);
  std::vector<EdgeId> cpe(trunc, kNoEdge);
  const Vertex copied = std::min(trunc, static_cast<Vertex>(base.chops_.size()));
  std::copy_n(base.chops_.begin(), copied, chops.begin());
  std::copy_n(base.cpe_.begin(), copied, cpe.begin());
  for (const Vertex v : touched) {
    if (v >= trunc) continue;  // unreachable beyond the truncation point
    const int32_t h = hops_[v];
    chops[v] =
        h == kUnreachable ? kCompactUnreachable : static_cast<uint16_t>(h);
    cpe[v] = parent_edge_[v];
  }
  chops_.swap(chops);
  cpe_.swap(cpe);
  n_ = static_cast<Vertex>(hops_.size());
  compact_ = true;
  std::vector<int32_t>().swap(hops_);
  std::vector<Vertex>().swap(parent_);
  std::vector<EdgeId>().swap(parent_edge_);
  return true;
}

Spt Spt::thawed() const {
  if (!compact_) return *this;
  Spt fat;
  fat.root = root;
  fat.dir = dir;
  fat.reset(n_);
  auto& hops = fat.hops_;
  auto& parent = fat.parent_;
  auto& parent_edge = fat.parent_edge_;
  for (Vertex v = 0; v < static_cast<Vertex>(chops_.size()); ++v) {
    if (chops_[v] == kCompactUnreachable) continue;
    hops[v] = static_cast<int32_t>(chops_[v]);
    parent[v] = this->parent(v);
    parent_edge[v] = cpe_[v];
  }
  fat.endpoints_ = endpoints_;
  return fat;
}

}  // namespace restorable
