// Shared machinery of the layered benchmark: run arguments, the closed-loop
// client driver, latency reservoirs, the in-memory span log of the traced
// run, registry snapshot differences, and the result document every
// workload fills in.
//
// The benchmark only calls the library's public functions. Every number it
// reports is either timed here, around those calls, or read from the
// program's own MetricsRegistry before and after the measured window.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/random.h"
#include "util/timing.h"

namespace perfbench {

using restorable::now_ns;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Self-test size: every workload shrinks its graph and loop so the whole
  // suite finishes in seconds. Figures from a tiny run are not comparable.
  bool tiny = false;
  std::string rcsr;     // cold_read: the packed graph image to load
  std::string out_dir;  // where the traced run writes its spans
};

// Result document of one workload process. `metrics` keeps insertion order
// so the report reads in the order the workload measured things.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> notes;   // human-readable lines for the report
  std::vector<std::string> budget;  // budget-table rows (traced run)

  void put(const std::string& name, double value, const std::string& unit);
  void note(const std::string& line) { notes.push_back(line); }
  void fail_check(const std::string& what);
  std::string to_json() const;
};

// Fixed-capacity uniform sample (Algorithm R) of per-operation latencies in
// ns. Capacity is allocated and touched up front so the sample's memory does
// not grow with throughput and cannot move peak RSS between two commits.
class Reservoir {
 public:
  explicit Reservoir(size_t capacity = 1 << 18, uint64_t seed = 1);
  void record(uint64_t ns) {
    ++seen_;
    if (kept_ < buf_.size()) {
      buf_[kept_++] = ns;
      return;
    }
    const uint64_t j = rng_.next_below(seen_);
    if (j < buf_.size()) buf_[j] = ns;
  }
  uint64_t seen() const { return seen_; }
  // Appends a random `quota` of the kept sample to `out` (see merged()).
  void merge_into(std::vector<uint64_t>& out, size_t quota) const;
  std::vector<uint64_t> sample() const {
    return {buf_.begin(), buf_.begin() + static_cast<long>(kept_)};
  }

 private:
  std::vector<uint64_t> buf_;
  size_t kept_ = 0;
  uint64_t seen_ = 0;
  restorable::Rng rng_;
};

// Percentile of an unsorted sample (nearest rank); 0 on an empty sample.
double percentile(std::vector<uint64_t> v, double q);
double median_d(std::vector<double> v);
// Merged sample over several reservoirs, each weighted by what it saw.
std::vector<uint64_t> merged(const std::vector<const Reservoir*>& parts);

// ---- Traced run: spans recorded in memory around every layer call. -------

struct Span {
  uint64_t trace = 0;   // one id per benchmark operation
  int32_t id = 0;       // index within its trace
  int32_t parent = -1;  // -1 = the operation's root span
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
};

// Per-thread span buffers plus per-name totals. Raw spans are kept up to a
// fixed count per thread (written out at the end); the per-name totals and
// latency samples cover every call.
class SpanLog {
 public:
  explicit SpanLog(size_t threads, size_t keep_per_thread = 20000);
  // The program's sampled traces are kept only while active (traced
  // blocks); the untraced blocks of a traced run drop them.
  void set_active(bool on) { active_.store(on, std::memory_order_relaxed); }
  void add_program_trace(const restorable::obs::QueryTrace& t);
  // p50 of one span name's durations, in ns (0 when never recorded).
  double p50_ns(const std::string& name) const;
  // One line per span name: calls, p50 and p99 (us).
  std::vector<std::string> summary() const;
  // p50 of the program's own fetch spans with the given outcome attribute.
  double program_fetch_p50_ns(const std::string& outcome) const;
  bool write(const std::string& path) const;

 private:
  friend class SpanScope;
  void finish(size_t thread, const Span& s);
  struct PerThread {
    std::vector<Span> spans;
    std::map<std::string, Reservoir> by_name;
  };
  std::vector<std::unique_ptr<PerThread>> threads_;
  size_t keep_;
  std::atomic<bool> active_{false};
  mutable std::mutex program_mu_;
  std::vector<std::string> program_lines_;
  std::map<std::string, std::vector<uint64_t>> program_fetch_ns_;
};

// One span around one layer call; a null log records nothing (untraced).
class SpanScope {
 public:
  SpanScope(SpanLog* log, size_t thread, uint64_t trace, int32_t id,
            int32_t parent, const char* name)
      : log_(log), thread_(thread) {
    if (log_) span_ = {trace, id, parent, name, now_ns(), 0};
  }
  ~SpanScope() {
    if (!log_) return;
    span_.dur_ns = now_ns() - span_.start_ns;
    log_->finish(thread_, span_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  size_t thread_;
  Span span_;
};

// ---- Closed-loop clients. ------------------------------------------------

// One client's view of a measurement block.
struct ClientCtx {
  size_t client = 0;
  uint64_t seq = 0;        // operations this client has issued so far
  SpanLog* spans = nullptr;  // non-null in traced blocks only
  uint64_t trace_id() const { return (uint64_t{client} << 40) | seq; }
};

struct BlockStats {
  double seconds = 0;
  uint64_t done = 0;
  uint64_t failed = 0;
  // Latency reservoirs per time slice of the block, one per client.
  std::vector<std::vector<std::unique_ptr<Reservoir>>> slices;
  double qps() const { return seconds > 0 ? done / seconds : 0; }
  // Sample over the whole block.
  std::vector<uint64_t> sample() const;
  // p99 as the median of the slices' p99s when every slice holds at least
  // kMinTailSample operations (so each slice p99 has ten samples beyond
  // it); otherwise the p99 of the whole block. A burst of outside load in
  // one slice does not move it.
  double tail_p99() const;
};
constexpr size_t kSlices = 5;
constexpr uint64_t kMinTailSample = 1000;

// Runs `clients` threads, each calling op(ctx) back to back until
// `seconds` have passed; op returns normally on success and throws on
// failure. Latency of every call is recorded.
BlockStats run_closed_loop(size_t clients, double seconds, SpanLog* spans,
                           const std::function<void(ClientCtx&)>& op,
                           uint64_t seq_base = 0);

// Timed measurement window. Untraced: one block of `seconds`. Traced: four
// alternating untraced/traced blocks of seconds/4 each, so the tracing
// overhead is measured inside one process on the same warm state.
struct Window {
  BlockStats untraced;  // merged untraced blocks (the whole untraced run)
  BlockStats traced;    // merged traced blocks (traced run only)
  double overhead_pct() const;
  uint64_t attempted() const {
    return untraced.done + untraced.failed + traced.done + traced.failed;
  }
  uint64_t failed() const { return untraced.failed + traced.failed; }
  // Share of the machine's CPU time the hypervisor gave to other guests
  // during the window (the `steal` column of /proc/stat), in percent. Runs
  // with high steal read slower, above all in their tails.
  double steal_pct = 0;
};
Window run_window(const Args& args, size_t clients, SpanLog* spans,
                  const std::function<void(ClientCtx&)>& op);

// Per-op cost of the client loop itself (query pick + two clock reads +
// latency record), measured with a stub op on one thread.
double driver_overhead_ns();

// Batch-timed probe: runs body(i) `reps` times in groups of `group` calls,
// returns the median per-call time in ns over the groups.
double probe_ns(size_t reps, size_t group, const std::function<void(size_t)>& body);

// ---- Registry differences. -------------------------------------------------

class RegistryDelta {
 public:
  RegistryDelta(const restorable::obs::MetricsSnapshot& before,
                const restorable::obs::MetricsSnapshot& after)
      : before_(before), after_(after) {}
  // Sum over every component whose name ends in `component` (so "server"
  // also matches "shard0.server"), after minus before.
  double counter(const std::string& component, const std::string& metric) const;
  // Histogram delta: (count, sum).
  std::pair<double, double> histogram(const std::string& component,
                                      const std::string& metric) const;
  // Gauge value after the window, summed over matching components.
  double gauge(const std::string& component, const std::string& metric) const;

 private:
  const restorable::obs::MetricsSnapshot& before_;
  const restorable::obs::MetricsSnapshot& after_;
};

double ratio(double num, double den);

// ---- Process accounting. ---------------------------------------------------

double peak_rss_mb();

// Phase times (s) of a set-up repeated kSetupReps times in one run: setup_s
// is the median of the totals, and each phase is reported as its median.
struct SetupTimes {
  std::map<std::string, std::vector<double>> phases;
  std::vector<double> totals;
  void add(const std::map<std::string, double>& one);
  void report(Result& r) const;
};

constexpr int kSetupReps = 3;

// One budget-table row: a measured end-to-end cost against the sum of the
// layer probes on its blocking path, flagged when the gap exceeds a quarter
// of the measured cost.
void put_budget(Result& r, const std::string& what, double measured,
                const std::vector<std::pair<std::string, double>>& parts,
                const std::string& unit);
// Value of an already-reported metric (0 when absent).
double get(const Result& r, const std::string& name);
// Reports obs.trace_overhead_pct, bench.driver_ns and the span summary, and
// writes the span log next to the run.
void finish_trace(const Args& args, const SpanLog& spans, const Window& w,
                  Result& r);

// Deterministic per-seed streams.
inline uint64_t mix(uint64_t seed, uint64_t tag) {
  return restorable::hash_combine(seed, tag);
}

}  // namespace perfbench
