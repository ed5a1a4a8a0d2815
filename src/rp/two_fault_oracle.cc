#include "rp/two_fault_oracle.h"

#include <algorithm>
#include <stdexcept>

namespace restorable {

namespace {

// Hop label of an unreachable vertex. Two of them still sum inside u32, so
// the scan needs no reachability branch: any value >= kFar never wins.
constexpr uint32_t kFar = 1u << 30;
constexpr uint32_t kNoTable = static_cast<uint32_t>(-1);
// Fault trees per construction task (one engine batch each).
constexpr size_t kChunk = 8;

// Column offsets within one slot of 4 * n u32 words.
enum Column : size_t { kHops = 0, kPre = 1, kLast = 2, kParentEdge = 3 };

// Writes `t` into one slot. Pre-order ranks come from two passes over the
// root-to-leaf order: subtree sizes leaves-up, then each vertex hands its
// children consecutive blocks of its own rank range, so the subtree of c
// holds exactly the ranks [pre[c], last[c]].
void flatten(const Spt& t, Vertex n, uint32_t* slot) {
  uint32_t* hops = slot + kHops * n;
  uint32_t* pre = slot + kPre * n;
  uint32_t* last = slot + kLast * n;
  EdgeId* parent_edge = slot + kParentEdge * n;
  std::fill_n(hops, n, kFar);
  std::fill_n(pre, n, kFar);
  std::fill_n(last, n, kFar);
  std::fill_n(parent_edge, n, kNoEdge);

  const std::vector<Vertex> order = t.top_order();
  for (Vertex v : order) {
    hops[v] = static_cast<uint32_t>(t.hops(v));
    parent_edge[v] = t.parent_edge(v);
    last[v] = 1;  // subtree size until the ranks are known
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it)
    if (*it != t.root) last[t.parent(*it)] += last[*it];
  std::vector<uint32_t> next(n);  // next free rank among v's children
  for (Vertex v : order) {
    if (v == t.root) {
      pre[v] = 0;
    } else {
      const Vertex p = t.parent(v);
      pre[v] = next[p];
      next[p] += last[v];
    }
    next[v] = pre[v] + 1;
    last[v] = pre[v] + last[v] - 1;
  }
}

// The midpoints whose root path uses one fault: pre ranks in
// [lo, lo + len). len == 0 when the fault is not a tree edge.
struct Cut {
  uint32_t lo = 0;
  uint32_t len = 0;

  // All ones when `rank` is inside, else zero.
  uint32_t mask(uint32_t rank) const { return rank - lo < len ? ~0u : 0u; }
};

// One candidate tree pair (tree(s1, F'), tree(s2, F')) with both faults cut
// out of both trees.
struct PairScan {
  const uint32_t* hops_a;
  const uint32_t* pre_a;
  const uint32_t* hops_b;
  const uint32_t* pre_b;
  Cut a0, a1, b0, b1;

  // hops_a + hops_b through midpoint x; at least kFar if either path meets
  // F. Branch-free, which lets the scan loop vectorize.
  uint32_t value(Vertex x) const {
    const uint32_t p = pre_a[x];
    const uint32_t q = pre_b[x];
    const uint32_t cut = a0.mask(p) | a1.mask(p) | b0.mask(q) | b1.mask(q);
    return (hops_a[x] + hops_b[x]) | (cut & kFar);
  }

  // min(best, min_x value(x)), stopping at the first block that reaches
  // `bound`. Blocks keep the inner loop branch-free.
  uint32_t scan(Vertex n, uint32_t best, uint32_t bound) const {
    constexpr Vertex kBlock = 256;
    for (Vertex x0 = 0; x0 < n && best > bound; x0 += kBlock) {
      const Vertex x1 = std::min<Vertex>(n, x0 + kBlock);
      uint32_t m = best;
      for (Vertex x = x0; x < x1; ++x) m = std::min(m, value(x));
      best = m;
    }
    return best;
  }
};

}  // namespace

TwoFaultSubsetOracle::TwoFaultSubsetOracle(const IRpts& pi,
                                           std::span<const Vertex> sources,
                                           const BatchSsspEngine* engine,
                                           SptCache* cache)
    : n_(pi.graph().num_vertices()),
      endpoints_(pi.graph().shared_endpoints()),
      table_of_(n_, kNoTable) {
  const BatchSsspEngine& pool = BatchSsspEngine::or_shared(engine);
  const size_t stride = 4 * static_cast<size_t>(n_);

  std::vector<SsspRequest> reqs;
  for (Vertex s : sources) {
    if (s >= n_)
      throw std::invalid_argument(
          "TwoFaultSubsetOracle: source vertex out of range");
    if (table_of_[s] != kNoTable) continue;
    table_of_[s] = static_cast<uint32_t>(reqs.size());
    reqs.push_back({s, {}, Direction::kOut});
  }
  tables_.resize(reqs.size());

  // The sigma base trees fix every table's slot count and edge -> slot map;
  // the fault-tree requests are queued in slot order.
  struct Job {
    uint32_t table, slot;
  };
  std::vector<Job> jobs;
  std::vector<SsspRequest> fault_reqs;
  {
    const std::vector<SptHandle> bases = pi.spt_batch(reqs, engine, cache);
    for (uint32_t i = 0; i < bases.size(); ++i) {
      SourceTable& t = tables_[i];
      const std::vector<EdgeId> edges = bases[i]->tree_edges();
      t.slots = static_cast<uint32_t>(1 + edges.size());
      t.data = std::make_unique_for_overwrite<uint32_t[]>(t.slots * stride);
      t.slot_of.assign(endpoints_->size(), 0);
      for (uint32_t k = 0; k < edges.size(); ++k) {
        t.slot_of[edges[k]] = k + 1;
        jobs.push_back({i, k + 1});
        fault_reqs.push_back(
            {reqs[i].root, FaultSet{edges[k]}, Direction::kOut});
      }
    }
    pool.parallel_for(bases.size(), [&](size_t i) {
      flatten(*bases[i], n_, tables_[i].data.get());
    });
  }

  // The Theta(sigma n) fault trees. Each pool task computes one chunk (its
  // engine batch runs inline on the worker) and flattens it at once, so
  // only a few trees per thread are alive at a time.
  const size_t chunks = (fault_reqs.size() + kChunk - 1) / kChunk;
  pool.parallel_for(chunks, [&](size_t ci) {
    const size_t c = ci * kChunk;
    const size_t len = std::min(kChunk, fault_reqs.size() - c);
    const std::vector<SptHandle> trees = pi.spt_batch(
        std::span<const SsspRequest>(fault_reqs.data() + c, len), engine,
        cache);
    for (size_t k = 0; k < len; ++k) {
      const Job& j = jobs[c + k];
      flatten(*trees[k], n_, tables_[j.table].data.get() + j.slot * stride);
    }
  });
}

int32_t TwoFaultSubsetOracle::query(Vertex s1, Vertex s2,
                                    const FaultSet& faults) const {
  if (faults.size() > 2)
    throw std::invalid_argument(
        "TwoFaultSubsetOracle::query: at most two faults are supported");
  if (s1 == s2) return 0;
  if (s1 >= n_ || s2 >= n_) return kUnreachable;
  const uint32_t i1 = table_of_[s1];
  const uint32_t i2 = table_of_[s2];
  if (i1 == kNoTable || i2 == kNoTable) return kUnreachable;
  const SourceTable& t1 = tables_[i1];
  const SourceTable& t2 = tables_[i2];
  const size_t stride = 4 * static_cast<size_t>(n_);
  const auto col = [&](const SourceTable& t, uint32_t slot, Column c) {
    return t.data.get() + slot * stride + c * n_;
  };
  const auto to_distance = [](uint32_t h) {
    return h >= kFar ? kUnreachable : static_cast<int32_t>(h);
  };

  // Ids beyond the edge table name no edge: they fault nothing.
  const EdgeId m = static_cast<EdgeId>(endpoints_->size());
  EdgeId f[2] = {kNoEdge, kNoEdge};
  size_t k = 0;
  for (EdgeId e : faults)
    if (e < m) f[k++] = e;
  if (k == 0) return to_distance(col(t1, 0, kHops)[s2]);
  if (k == 1) return to_distance(col(t1, t1.slot_of[f[0]], kHops)[s2]);

  // Lower bound: each dist_{G \ {f}}(s1, s2) is at most dist_{G \ F}.
  const uint32_t h0 = col(t1, t1.slot_of[f[0]], kHops)[s2];
  const uint32_t h1 = col(t1, t1.slot_of[f[1]], kHops)[s2];
  const uint32_t bound = std::max(h0, h1);
  if (bound >= kFar) return kUnreachable;
  if (h0 < h1) std::swap(f[0], f[1]);  // f[0] realizes the bound

  const auto cut = [&](const SourceTable& t, uint32_t slot, EdgeId e) {
    const EdgeId* pe = col(t, slot, kParentEdge);
    const Edge& ends = (*endpoints_)[e];
    const Vertex c = pe[ends.u] == e ? ends.u
                     : pe[ends.v] == e ? ends.v
                                       : kNoVertex;
    if (c == kNoVertex) return Cut{};
    const uint32_t lo = col(t, slot, kPre)[c];
    return Cut{lo, col(t, slot, kLast)[c] - lo + 1};
  };
  // Tree pairs for F' = {f[0]}, {f[1]}, {}; the singleton realizing the
  // bound first, since its own s1 ~> s2 path often attains it. A pair equal
  // to an earlier one (both faults off both trees) is scanned once.
  const std::pair<uint32_t, uint32_t> slots[3] = {
      {t1.slot_of[f[0]], t2.slot_of[f[0]]},
      {t1.slot_of[f[1]], t2.slot_of[f[1]]},
      {0, 0}};
  PairScan pairs[3];
  size_t np = 0;
  for (size_t p = 0; p < 3; ++p) {
    if (std::find(slots, slots + p, slots[p]) != slots + p) continue;
    const auto [a, b] = slots[p];
    pairs[np++] = {col(t1, a, kHops), col(t1, a, kPre), col(t2, b, kHops),
                   col(t2, b, kPre),  cut(t1, a, f[0]), cut(t1, a, f[1]),
                   cut(t2, b, f[0]),  cut(t2, b, f[1])};
  }

  // The endpoints as midpoints first (a tree pair's own s1 ~> s2 path),
  // then full scans until the bound is met.
  uint32_t best = kFar;
  for (size_t p = 0; p < np; ++p)
    best = std::min({best, pairs[p].value(s2), pairs[p].value(s1)});
  for (size_t p = 0; p < np && best > bound; ++p)
    best = pairs[p].scan(n_, best, bound);
  return to_distance(best);
}

size_t TwoFaultSubsetOracle::trees_stored() const {
  size_t total = 0;
  for (const SourceTable& t : tables_) total += t.slots;
  return total;
}

}  // namespace restorable
