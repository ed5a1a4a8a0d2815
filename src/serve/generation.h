// Epoch-pinned generation swapping: the RCU-style core of the lock-free
// serving path.
//
// A Generation is one immutable world: a frozen CSR snapshot of the served
// graph (Graph::snapshot) plus a scheme view rebound to it
// (IRpts::snapshot_view) that answers to the live scheme's cache identity.
// Queries never touch the live graph; they pin the current generation with
// ONE atomic fetch_add and compute against its snapshot, so a concurrent
// Graph::apply can rebuild the live CSR mid-query without a data race and
// without a lock on the query path.
//
// GenerationManager is the publish/retire machinery:
//
//   readers    pin()      one fetch_add on the packed word; wait-free
//              ~Pin       one CAS on the packed word (or, if the generation
//                         was unpublished meanwhile, one fetch_sub on its
//                         residual counter); lock-free, never blocks
//   mutator    publish()  builds happen off to the side; the swap itself is
//                         one exchange of the packed word. The mutator is
//                         the ONLY party that ever waits: before installing
//                         generation N+1 it drains generation N-1, so at
//                         most TWO generations are alive at any instant
//                         (current + one draining) -- the reader-starvation
//                         bound is "a reader can be behind by at most one
//                         epoch", and the memory bound is two CSR copies.
//
// The packed word holds (Slot* << 16 | pin-count): the pointer identifies
// the current generation and the low 16 bits count its outstanding pins, so
// pinning is a single fetch_add (the pointer bits are unperturbed because
// the count cannot overflow under the documented reader limit) and
// unpinning CASes the count down iff the generation is still current. Once
// a generation is unpublished, its stragglers are counted down through a
// per-generation residual counter instead; the publisher observes
// residual == -transferred (transferred = the pin count captured by the
// swap) exactly when no pin is outstanding, and only then frees the slot.
// See docs/CONCURRENCY.md for the full protocol spec, every memory order,
// and the proof sketch of the drain condition.
//
// Limits (documented contracts, not checked at runtime beyond asserts):
// at most 65535 concurrently pinned readers (16-bit count), and Slot
// pointers must fit 48 bits (canonical user-space addresses on x86-64 and
// aarch64 do).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "core/rpts.h"
#include "graph/graph.h"

namespace restorable {

// One immutable published world. Built entirely before publish, never
// mutated after: readers share it without synchronization.
struct Generation {
  GraphSnapshot graph;                  // frozen CSR; owns the topology
  std::unique_ptr<const IRpts> scheme;  // view over *graph, live scheme_id

  uint64_t epoch() const { return graph->epoch(); }
  // (scheme_id, epoch) the generation's trees are keyed by; constant
  // because the snapshot's epoch never moves.
  SchemeVersion version() const { return scheme->version(); }
};

class GenerationManager {
  struct Slot;

 public:
  // RAII pin on one generation. Holding a Pin guarantees the generation
  // (snapshot, scheme view, and every tree computed from them) stays alive;
  // copying re-pins the SAME generation (not the current one), so a query
  // that needs several fetches under one coherent epoch clones its pin.
  // Default-constructed and moved-from pins are empty.
  class Pin {
   public:
    Pin() = default;
    Pin(const Pin& other) : mgr_(other.mgr_), slot_(other.slot_) {
      if (slot_) mgr_->repin(slot_);
    }
    Pin& operator=(const Pin& other) {
      Pin copy(other);
      swap(copy);
      return *this;
    }
    Pin(Pin&& other) noexcept : mgr_(other.mgr_), slot_(other.slot_) {
      other.mgr_ = nullptr;
      other.slot_ = nullptr;
    }
    Pin& operator=(Pin&& other) noexcept {
      Pin moved(std::move(other));
      swap(moved);
      return *this;
    }
    ~Pin() {
      if (slot_) mgr_->unpin(slot_);
    }

    explicit operator bool() const { return slot_ != nullptr; }
    const Generation& operator*() const { return *get(); }
    const Generation* operator->() const { return get(); }
    const Generation* get() const;

    void swap(Pin& other) {
      std::swap(mgr_, other.mgr_);
      std::swap(slot_, other.slot_);
    }

   private:
    friend class GenerationManager;
    Pin(GenerationManager* mgr, Slot* slot) : mgr_(mgr), slot_(slot) {}

    GenerationManager* mgr_ = nullptr;
    Slot* slot_ = nullptr;
  };

  struct Stats {
    uint64_t published = 0;      // generations installed (incl. the initial)
    uint64_t retired = 0;        // generations drained and freed
    uint64_t publish_waits = 0;  // publishes that blocked on a drain
    uint64_t live = 0;           // 1 (steady state) or 2 (one draining)
    // Pin occupancy at the stats() instant: pins counted in the current
    // word plus pins still outstanding on the draining generation. A
    // point-in-time gauge (readers keep pinning concurrently), exported as
    // such through the metrics registry.
    uint64_t pins_now = 0;
    // Total wall time publishes have spent blocked in the drain wait
    // (epoch-advance latency attributable to slow readers). 0 under
    // RESTORABLE_NO_METRICS.
    uint64_t publish_wait_ns = 0;
  };

  // Takes ownership of the initial generation; it is published immediately.
  explicit GenerationManager(std::unique_ptr<const Generation> initial);

  GenerationManager(const GenerationManager&) = delete;
  GenerationManager& operator=(const GenerationManager&) = delete;

  // Caller contract: no outstanding pins (asserted in debug builds).
  ~GenerationManager();

  // Pins the current generation. Wait-free: one fetch_add, no loop, no
  // lock -- the query-path cost of the whole scheme.
  Pin pin();

  // Installs `next` as the current generation. Serialized internally (safe
  // from concurrent mutators, though OracleServer already serializes);
  // blocks only while the PREVIOUS draining generation still has pinned
  // readers -- the max-two-generations bound. Readers pinning concurrently
  // see either the old or the new generation, each fully constructed.
  void publish(std::unique_ptr<const Generation> next);

  Stats stats() const;

 private:
  struct Slot {
    std::unique_ptr<const Generation> gen;
    // Post-unpublish pin accounting (see docs/CONCURRENCY.md): releases and
    // clones that find the packed word pointing elsewhere land here. The
    // publisher's swap captures `transferred` = the word's pin count at
    // unpublish; the slot is drained exactly when residual == -transferred.
    std::atomic<int64_t> residual{0};
    int64_t transferred = 0;  // written by the unpublishing mutator only
  };

  static constexpr int kCountBits = 16;
  static constexpr uint64_t kCountMask = (uint64_t{1} << kCountBits) - 1;

  static uint64_t pack(Slot* slot, uint64_t count);
  static Slot* slot_of(uint64_t word) {
    return reinterpret_cast<Slot*>(word >> kCountBits);
  }
  static uint64_t count_of(uint64_t word) { return word & kCountMask; }

  void unpin(Slot* slot);
  void repin(Slot* slot);
  // Waits for the draining generation's pins to hit zero, then frees it.
  void retire_draining();

  // The ONLY atomic readers touch: packed (current Slot*, pin count).
  std::atomic<uint64_t> word_;

  // Mutator-side state, serialized by publish_mu_ (readers never take it).
  mutable std::mutex publish_mu_;
  Slot* draining_ = nullptr;

  std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> retired_{0};
  std::atomic<uint64_t> publish_waits_{0};
  std::atomic<uint64_t> publish_wait_ns_{0};
};

inline const Generation* GenerationManager::Pin::get() const {
  return slot_->gen.get();
}

}  // namespace restorable
