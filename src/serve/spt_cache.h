// Sharded, memory-budgeted tree store with class-aware segmented admission.
//
// Theorem 19 schemes are deterministic functions of (graph, policy, root,
// faults, dir): two requests with the same key always produce bit-identical
// trees, so the expensive resource of every consumer in this library -- a
// tiebroken SPT -- is perfectly cacheable. This module is the shared tree
// store behind both the construction paths (subset-rp, preservers, labels,
// oracles; see IRpts::spt_batch's cache parameter) and the online serving
// path (serve/oracle_server.h).
//
// Concurrency model: the key space is hash-partitioned into shards, each an
// independent pair of LRU lists + hash map behind its own mutex, so
// concurrent serving threads contend only when their keys collide on a
// shard. Entries are handed out as SptHandle (shared_ptr<const Spt>): an
// eviction never invalidates a tree a caller is still reading.
//
// Segmented admission: keys split into two classes. Fault-free base trees
// (faults.empty()) are n x more reusable than any single fault tree -- every
// consumer asks for them, and the fault fan-outs of the oracle / preserver /
// labeling builds are one-shot scans -- so base trees live in a *protected*
// segment sized as `protected_fraction` of each shard's budget slice. Fault
// trees live in the probationary segment and may only use the remaining
// fraction; a scan-heavy fault workload therefore evicts other fault trees,
// never the base trees. Base-tree inserts may reclaim probationary bytes
// before evicting other base trees. protected_fraction == 0 degrades to the
// flat LRU (one class, one list) -- the bench baseline.
//
// Byte accounting: every entry is charged Spt::memory_bytes() plus the key
// and bookkeeping overhead against a per-shard slice of the global budget;
// inserting past the slice evicts least-recently-used entries first (an
// entry larger than its segment's slice is evicted immediately -- the
// caller still holds its SptHandle, the cache just refuses to retain it).
// The cache never converts a tree: every admission path publishes through
// publish_spt (core/spt.h), so resident trees are compact unless it declined.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/spt.h"
#include "graph/graph.h"

namespace restorable {

// Cache key: which scheme instance at which topology epoch, restricted to
// which root / fault set / orientation. (scheme_id, epoch) is the composite
// SchemeVersion (see IRpts::version()): the instance id pins down the graph
// object and the policy, the epoch pins down the topology over time, so a
// key addresses bit-identical trees even across graph mutations.
struct SptKey {
  uint64_t scheme_id = 0;
  uint64_t epoch = 0;
  Vertex root = kNoVertex;
  Direction dir = Direction::kOut;
  // Quantized epsilon of the approximate tier (core/spt.h): 0 = exact.
  // Exact and approximate trees of one root are distinct entries that
  // coexist per shard (eps_q is hashed by the full map hash but NOT by the
  // shard hash, so epoch rekeying stays in-shard for both tiers). Exact
  // keys promise bit-identical trees; approximate keys promise only the
  // (1+eps)^depth stretch bound -- a carried-forward or epsilon-repaired
  // approximate tree may differ from a fresh compute, and first-writer-wins
  // keeps whichever landed first (both are within bound).
  uint32_t eps_q = 0;
  std::vector<EdgeId> faults;  // sorted (copied from FaultSet)

  SptKey() = default;
  SptKey(SchemeVersion version, const SsspRequest& req)
      : scheme_id(version.scheme_id),
        epoch(version.epoch),
        root(req.root),
        dir(req.dir),
        eps_q(req.eps_q),
        faults(req.faults.begin(), req.faults.end()) {}
  // Epoch-0 convenience for static-graph callers (a never-mutated graph
  // stays at epoch 0, so this matches its scheme's version()).
  SptKey(uint64_t scheme, const SsspRequest& req)
      : SptKey(SchemeVersion{scheme, 0}, req) {}

  // The admission class: fault-free base trees are the protected class.
  bool is_base() const { return faults.empty(); }

  // The key's fault list as a FaultSet (one copy; `faults` is already
  // sorted and unique). This is what carry-forward predicates consume.
  FaultSet fault_set() const {
    return FaultSet(std::vector<EdgeId>(faults.begin(), faults.end()));
  }

  friend bool operator==(const SptKey&, const SptKey&) = default;
};

struct SptKeyHash {
  // Hash of everything EXCEPT the epoch and eps_q. Shard selection uses
  // this alone, so every epoch of one (scheme, root, faults, dir) -- exact
  // and approximate tiers alike -- lands on one shard and advance_epoch can
  // rekey survivors in place under a single shard lock instead of migrating
  // entries between shards.
  static size_t epoch_free(const SptKey& k);
  // Full map hash: the epoch-free part combined with the epoch and eps_q.
  size_t operator()(const SptKey& k) const;
};

// Root-routing hash of the sharded serving tier (serve/shard_router.h).
// Deliberately coarser than even epoch_free: it depends ONLY on
// (scheme_id, root) -- no epoch, no eps_q, no faults, no direction -- so
// every tree a root can ever produce (base, fault fan-outs, approximate
// tier, any topology epoch) is owned by ONE oracle shard, and routing stays
// stable across churn. splitmix64 finalizer: cheap, well-mixed, and fixed
// forever (the router's slot table and the stability tests depend on it).
inline uint64_t shard_route_hash(uint64_t scheme_id, Vertex root) {
  uint64_t x = scheme_id * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(root);
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class SptCache {
 public:
  struct Config {
    size_t shards = 16;                     // clamped to >= 1
    size_t byte_budget = size_t{256} << 20; // total across shards
    // Fraction of each shard's slice reserved for fault-free base trees
    // (clamped to [0, 1]). 0 disables segmentation: one flat LRU list, any
    // entry can evict any other -- the pre-segmentation behavior, kept as
    // the bench baseline.
    double protected_fraction = 0.5;
    // Inert: the cache never reads it. It keeps the slot of the removed
    // fat/compact publication switch so four-value positional initializers
    // written against the old Config (perfbench/layers.cc) still compile;
    // every tree is published through publish_spt (core/spt.h).
    bool unused_slot = false;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
    // Dynamic-update accounting (advance_epoch / invalidate): trees rekeyed
    // forward across an epoch bump zero-copy, trees dropped because the
    // delta could change them, and dead-version strays aged out.
    uint64_t carried_forward = 0;
    uint64_t invalidated = 0;
    uint64_t purged_stale = 0;
    // Construction-path inserts rejected because their epoch was older than
    // the latest this cache has advanced the scheme to (see insert): each
    // one is a dead entry that would otherwise have strandeed bytes until
    // the next epoch bump.
    uint64_t rejected_stale = 0;
    // The base-tree (protected-class) slice of hits/misses, whatever the
    // protected_fraction -- this is the signal the admission policy is
    // judged by (base trees must keep hitting under fault-tree scans).
    uint64_t base_hits = 0;
    uint64_t base_misses = 0;
    size_t entries = 0;           // currently resident
    size_t bytes = 0;             // currently accounted
    // Sum of the per-shard high-water marks of `bytes`. NOT a global peak:
    // each shard's peak is taken at its own instant, so the sum can exceed
    // any byte count the cache ever held at one moment -- it is an upper
    // bound on the true peak (and exact for a single-shard cache). The old
    // name `peak_bytes` overstated what it measured.
    size_t sum_shard_peak_bytes = 0;
    size_t protected_entries = 0; // resident in the protected segment
    size_t protected_bytes = 0;   // accounted to the protected segment

    double hit_rate() const {
      const uint64_t total = hits + misses;
      return total ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
    }
    double base_hit_rate() const {
      const uint64_t total = base_hits + base_misses;
      return total ? static_cast<double>(base_hits) /
                         static_cast<double>(total)
                   : 0.0;
    }
  };

  SptCache() : SptCache(Config()) {}
  explicit SptCache(Config config);

  // The resident tree for `key`, refreshed to most-recently-used; nullptr on
  // miss. Never computes.
  SptHandle lookup(const SptKey& key);

  // Read-only lookup: touches neither the hit/miss counters NOR the LRU
  // order. For internal re-checks (the batcher's locked double-check) and
  // tests: a non-query probe must not refresh an entry to MRU, or the
  // probing path would perturb which entry the next insert evicts.
  SptHandle peek(const SptKey& key);

  // Stores `tree` under `key` (first writer wins: if the key is already
  // resident the existing tree is kept -- both are bit-identical by
  // determinism). Returns the resident tree, evicting LRU entries of the
  // appropriate segment as needed to respect the shard's byte slice, or
  // nullptr if the entry itself could not be retained.
  //
  // Stale-epoch rejection: once advance_epoch has moved `key.scheme_id` to
  // epoch E, inserts keyed at epochs < E return nullptr without storing
  // anything (counted in Stats::rejected_stale). A construction-path batch
  // that raced an epoch bump (cached_spt_batch runs outside the server's
  // update lock) would otherwise publish a tree at an epoch the walk has
  // already purged -- a dead entry, protected segment included, stranded
  // until the *next* bump. Under the epoch-pinned serving regime
  // (serve/generation.h) this is the publish-side guard of the whole RCU
  // path: the mutator shadow-advances the cache BEFORE swapping in the new
  // generation, so a reader still pinned to the displaced generation can
  // finish its compute and hand out a correct old-epoch answer, but its
  // straggler publish bounces here instead of resurrecting a purged epoch
  // in the store.
  SptHandle insert(const SptKey& key, Spt tree);

  // Handle-based insert for callers that already share the tree (the normal
  // path: cached_spt_batch and the coalescing batcher publish the same
  // handle they hand to their callers, so admission costs zero copies).
  SptHandle insert(const SptKey& key, SptHandle tree);

  // Fine-grained invalidation: drops every resident entry of `scheme_id`
  // (any epoch) matching `pred` -- all of them when `pred` is empty, e.g.
  // when retiring a scheme so its base trees cannot strand bytes in the
  // protected segment. Eviction-safe: live SptHandle readers keep their
  // trees; only the cache's references are dropped. Returns the count.
  size_t invalidate(uint64_t scheme_id,
                    const std::function<bool(const SptKey&, const Spt&)>&
                        pred = nullptr);

  struct AdvanceStats {
    size_t carried = 0;       // rekeyed old_epoch -> new_epoch, zero-copy
    size_t invalidated = 0;   // old_epoch entries the delta may have changed
    size_t purged_stale = 0;  // entries from epochs older than old_epoch
    // Invalidated entries subsequently re-admitted via incremental repair
    // rather than a from-scratch recompute. advance_epoch itself returns
    // this 0; the update driver (OracleServer::apply_updates) fills it in
    // after running the repair batch over the `invalidated_out` entries.
    size_t repaired = 0;
  };

  // One current-epoch entry advance_epoch invalidated: the key already
  // rekeyed to the new epoch (exactly the slot an update path re-populates)
  // plus the old tree, which is what an incremental repair
  // (IRpts::repair_tree) starts from.
  struct Invalidated {
    SptKey key;
    SptHandle old_tree;
  };

  // The epoch-bump primitive of the dynamic-update pipeline. For every
  // resident entry of `scheme_id`: entries at `old_epoch` satisfying
  // `survives(key, tree)` are rekeyed to `new_epoch` in place -- the SAME
  // handle, so carry-forward costs zero copies and zero recomputes --
  // while the rest of the old epoch is invalidated and anything from even
  // older (dead) epochs is purged, protected segment included, so a chain
  // of version bumps cannot strand unreachable trees. Every invalidated
  // current-epoch entry is appended to `invalidated_out` (if non-null) with
  // its key already rekeyed to `new_epoch` and its old tree attached: the
  // exact inputs the update path's repair batch consumes. Entries already
  // at `new_epoch` are left untouched. Also records `new_epoch` as the
  // scheme's latest epoch, arming insert()'s stale-epoch rejection.
  AdvanceStats advance_epoch(
      uint64_t scheme_id, uint64_t old_epoch, uint64_t new_epoch,
      const std::function<bool(const SptKey&, const Spt&)>& survives,
      std::vector<Invalidated>* invalidated_out = nullptr);

  void clear();

  size_t shard_count() const { return shards_.size(); }
  size_t byte_budget() const { return byte_budget_; }
  double protected_fraction() const { return protected_fraction_; }
  Stats stats() const;  // aggregated over shards

 private:
  struct Entry {
    SptKey key;
    SptHandle tree;
    size_t bytes = 0;
    bool prot = false;  // which segment's list/bytes this entry is on
  };
  using LruList = std::list<Entry>;

  struct Shard {
    std::mutex mu;
    LruList prot_lru;  // protected segment (base trees); front = MRU
    LruList prob_lru;  // probationary segment (fault trees); front = MRU
    std::unordered_map<SptKey, LruList::iterator, SptKeyHash> map;
    // Latest epoch advance_epoch has moved each scheme to, replicated per
    // shard so insert's stale check stays under the one shard lock it
    // already holds (advance_epoch visits every shard anyway).
    std::unordered_map<uint64_t, uint64_t> latest_epoch;
    size_t prot_bytes = 0;
    size_t prob_bytes = 0;
    size_t peak_bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t base_hits = 0;
    uint64_t base_misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
    uint64_t rejected_stale = 0;
    uint64_t carried_forward = 0;
    uint64_t invalidated = 0;
    uint64_t purged_stale = 0;
  };

  Shard& shard_for(const SptKey& key) {
    return *shards_[SptKeyHash::epoch_free(key) % shards_.size()];
  }
  LruList& list_of(Shard& s, bool prot) {
    return prot ? s.prot_lru : s.prob_lru;
  }
  // Drops the LRU entry of `list` and returns its byte charge.
  size_t evict_back(Shard& s, LruList& list);
  static size_t entry_bytes(const SptKey& key, const Spt& tree);

  size_t byte_budget_;
  size_t per_shard_budget_;
  size_t protected_budget_;  // per shard; 0 = flat (single-class) mode
  double protected_fraction_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace restorable
