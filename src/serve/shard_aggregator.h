// The front-end of the sharded serving tier.
//
// A ShardAggregator owns N OracleShards (serve/oracle_shard.h) and a
// ShardRouter assigning every root to exactly one of them. Its one rule is
// deterministic group-by-shard (docs/ARCHITECTURE.md "Sharded serving"):
//   * a single (tree, distance, path, replacement_distance) pins its owning
//     shard under the fan-out gate and is ONE serve_batch() on that shard;
//   * a multi-root tree_batch is decomposed per shard, all pins are taken
//     under one shared hold of the gate, and each touched shard gets exactly
//     ONE serve_batch() with its sub-batch; results merge back in request
//     order. A k-root query therefore costs exactly |touched| <= min(k, N)
//     submissions -- structurally, even single-threaded.
// Concurrent misses from different callers still coalesce one layer down,
// in each shard's CoalescingBatcher; the front-end adds no staging of its
// own.
//
// Epoch-coherent updates: apply_updates() applies the delta batch to the
// shared graph ONCE, then fans the SAME DeltaBatch + snapshot out to every
// shard (OracleShard::absorb_update) under the exclusive side of a
// fan-out gate that queries hold shared ONLY while collecting their
// generation pins. A multi-shard query therefore sees all-old or all-new,
// never a mix: all shards advance, then the router unblocks the new epoch
// (routed_epoch() bumps, the gate reopens), and only afterwards does each
// shard repair/prewarm its invalidated trees (repair_deferred) -- readers
// never wait on prewarming. A submission whose pins predate the fan-out
// simply computes on the old generation; the SptCache's stale-epoch insert
// rejection keeps its straggler publishes out of the store.
//
// Everything is in-process: shards are objects, not processes, so CI runs
// the full three-layer stack (shard_test, bench serve_sharded) and answers
// are bit-identical at any shard count -- sharding repartitions work, never
// changes the scheme.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <utility>
#include <vector>

#include "core/rpts.h"
#include "engine/batch_sssp.h"
#include "obs/metrics.h"
#include "serve/oracle_shard.h"
#include "serve/shard_router.h"

namespace restorable {

struct FrontEndConfig {
  size_t num_shards = 1;
  uint32_t num_slots = ShardRouter::kDefaultSlots;
  // Total engine worker threads across the fleet: each shard gets an owned
  // BatchSsspEngine slice of max(1, total_engine_threads / num_shards)
  // threads -- the NUMA story's single-machine shape (one pool per shard).
  // 0 = shards use `shard.engine` as given (typically the process-shared
  // engine).
  size_t total_engine_threads = 0;
  // Per-shard template. cache.byte_budget is PER SHARD (the caller divides
  // a global budget by num_shards if that is the intent);
  // metrics_prefix/metrics/tracer are overwritten per shard so the whole
  // fleet reports into one registry ("shard0.server", "shard1.cache", ...).
  ServerConfig shard;
  // Registry for the whole fleet + the front-end's own `frontend`
  // component. nullptr = the aggregator owns a private one.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

// Front-end counters (also registered as the `frontend` metrics component).
struct FrontEndStats {
  uint64_t queries = 0;      // front-end API calls
  uint64_t subqueries = 0;   // routed per-shard tree fetches
  uint64_t submissions = 0;  // serve_batch calls issued to shards
  // Per-sub-query outcome classes, the front-end half of FetchOutcome:
  // remote_hit = resolved from the owning shard's cache; aggregated =
  // missed at the owning shard, served by its per-shard submission. Sums
  // to subqueries.
  uint64_t remote_hits = 0;
  uint64_t aggregated = 0;
  uint64_t fanouts = 0;  // epoch-coherent update fan-outs completed
};

class ShardAggregator {
 public:
  // Throws std::invalid_argument if `pi` has no snapshot_view (see
  // OracleShard's constructor).
  explicit ShardAggregator(const IRpts& pi, FrontEndConfig config = {});
  ~ShardAggregator();

  ShardAggregator(const ShardAggregator&) = delete;
  ShardAggregator& operator=(const ShardAggregator&) = delete;

  const IRpts& scheme() const { return *pi_; }
  size_t num_shards() const { return shards_.size(); }
  OracleShard& shard(size_t i) { return *shards_[i]; }
  const ShardRouter& router() const { return router_; }
  // Epoch the router has unblocked: every shard has absorbed up to here.
  uint64_t routed_epoch() const {
    return routed_epoch_.load(std::memory_order_acquire);
  }

  // ---- Query surface (routed; same semantics as OracleShard's, including
  // ---- std::invalid_argument for a vertex outside the served graph). -----

  SptHandle tree(const SsspRequest& req);
  // Multi-root batch: decomposed per shard, merged in request order.
  std::vector<SptHandle> tree_batch(std::span<const SsspRequest> requests);
  int32_t distance(Vertex s, Vertex t, const FaultSet& faults = {});
  Path path(Vertex s, Vertex t, const FaultSet& faults = {});
  // Stability fast path as in OracleShard; both fetches ride one pin on the
  // owning shard (base and fault tree of one query share an epoch).
  int32_t replacement_distance(Vertex s, Vertex t, EdgeId e);

  // ---- Update surface: ONE graph apply, fleet-wide epoch-coherent fan-out.
  // Returns the front-end's own accounting with per-shard counters summed
  // (carried/invalidated/prewarmed/repaired across the fleet).
  UpdateResult apply_update(Graph& graph, GraphDelta delta);
  UpdateResult apply_updates(Graph& graph, std::span<const GraphDelta> deltas);

  FrontEndStats stats() const;
  obs::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  // Pin shard k's current generation under the fan-out gate, then reject
  // query vertices s and t outside it (check_query_vertex).
  GenerationManager::Pin pin_shard(size_t k, Vertex s, Vertex t);
  // ONE serve_batch of `requests` on shard k, booking each sub-query as a
  // remote_hit or aggregated. The pin must have been taken under the
  // fan-out gate.
  std::vector<SptHandle> submit(size_t k,
                                std::span<const SsspRequest> requests,
                                const GenerationManager::Pin& pin);
  SptHandle submit_one(size_t k, const SsspRequest& req,
                       const GenerationManager::Pin& pin) {
    return std::move(submit(k, std::span(&req, 1), pin)[0]);
  }
  void register_providers();

  const IRpts* pi_;
  FrontEndConfig config_;
  ShardRouter router_;
  // Declared before shards_ so the registry outlives them: every shard's
  // destructor unregisters its components from metrics_, which must still
  // be alive then (same reason owned engines precede shards -- a shard's
  // batcher flushes into its engine until the moment it dies).
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;
  std::vector<std::unique_ptr<BatchSsspEngine>> engines_;
  std::vector<std::unique_ptr<OracleShard>> shards_;

  // Fan-out gate: queries hold it SHARED only while collecting generation
  // pins (so one query's pins are all-old or all-new across shards);
  // apply_updates holds it EXCLUSIVE across graph.apply + every shard's
  // absorb_update. Computing happens outside the gate, so a publish never
  // waits on an engine batch -- only on pin collection, which is a few
  // atomic fetch_adds.
  std::shared_mutex fanout_mu_;
  // Serializes mutators across the fleet AND covers repair_deferred, which
  // reads the live CSR after the gate reopens.
  std::mutex mutator_mu_;
  std::atomic<uint64_t> routed_epoch_{0};

  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> subqueries_{0};
  std::atomic<uint64_t> submissions_{0};
  std::atomic<uint64_t> remote_hits_{0};
  std::atomic<uint64_t> aggregated_{0};
  std::atomic<uint64_t> fanouts_{0};

  // Declared LAST: unregistered before anything the provider reads dies.
  std::vector<obs::Registration> registrations_;
};

}  // namespace restorable
