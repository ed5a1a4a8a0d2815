#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

// ---- Result ----------------------------------------------------------------

void Result::put(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& [n, vu] : metrics)
    if (n == name) {
      vu = {value, unit};
      return;
    }
  metrics.push_back({name, {value, unit}});
}

void Result::fail_check(const std::string& what) {
  correct = false;
  notes.push_back("CHECK FAILED: " + what);
}

namespace {
std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
}  // namespace

std::string Result::to_json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, vu] = metrics[i];
    os << (i ? ", " : "") << '"' << json_escape(name) << "\": {\"value\": "
       << num(vu.first) << ", \"unit\": \"" << json_escape(vu.second)
       << "\"}";
  }
  os << "}, \"notes\": [";
  for (size_t i = 0; i < notes.size(); ++i)
    os << (i ? ", " : "") << '"' << json_escape(notes[i]) << '"';
  os << "], \"budget\": [";
  for (size_t i = 0; i < budget.size(); ++i)
    os << (i ? ", " : "") << '"' << json_escape(budget[i]) << '"';
  os << "]}";
  return os.str();
}

// ---- Samples ---------------------------------------------------------------

Reservoir::Reservoir(size_t capacity, uint64_t seed)
    : buf_(std::max<size_t>(1, capacity), 0), rng_(seed) {}

void Reservoir::merge_into(std::vector<uint64_t>& out, size_t quota) const {
  // The kept sample is uniform over what this reservoir saw; take a random
  // `quota` of it (partial Fisher-Yates on a copy).
  std::vector<uint64_t> s = sample();
  restorable::Rng rng(seen_ * 0x9e3779b97f4a7c15ull + kept_);
  quota = std::min(quota, s.size());
  for (size_t i = 0; i < quota; ++i) {
    const size_t j = i + rng.next_below(s.size() - i);
    std::swap(s[i], s[j]);
    out.push_back(s[i]);
  }
}

std::vector<uint64_t> merged(const std::vector<const Reservoir*>& parts) {
  std::vector<uint64_t> out;
  double seen = 0;
  for (const Reservoir* p : parts) seen += static_cast<double>(p->seen());
  if (seen == 0) return out;
  // Every part contributes in proportion to the operations it saw, scaled
  // so that no part is asked for more than it kept.
  double scale = 1.0;
  for (const Reservoir* p : parts)
    if (p->seen())
      scale = std::min(scale, static_cast<double>(p->sample().size()) /
                                  static_cast<double>(p->seen()));
  for (const Reservoir* p : parts)
    p->merge_into(out, static_cast<size_t>(
                           std::llround(scale * static_cast<double>(p->seen()))));
  return out;
}

double percentile(std::vector<uint64_t> v, double q) {
  if (v.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const size_t k = rank == 0 ? 0 : std::min(rank - 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return static_cast<double>(v[k]);
}

double median_d(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

// ---- Spans -----------------------------------------------------------------

SpanLog::SpanLog(size_t threads, size_t keep_per_thread)
    : keep_(keep_per_thread) {
  for (size_t i = 0; i < threads; ++i) {
    threads_.push_back(std::make_unique<PerThread>());
    threads_.back()->spans.reserve(keep_);
  }
}

void SpanLog::finish(size_t thread, const Span& s) {
  PerThread& pt = *threads_[thread];
  if (pt.spans.size() < keep_) pt.spans.push_back(s);
  auto it = pt.by_name.find(s.name);
  if (it == pt.by_name.end())
    it = pt.by_name.emplace(s.name, Reservoir(4096, pt.by_name.size() + 1))
             .first;
  it->second.record(s.dur_ns);
}

void SpanLog::add_program_trace(const restorable::obs::QueryTrace& t) {
  if (!active_.load(std::memory_order_relaxed)) return;
  std::string line = restorable::obs::Tracer::to_jsonl(t);
  std::lock_guard<std::mutex> lock(program_mu_);
  for (const auto& sp : t.spans()) {
    if (sp.name != "fetch") continue;
    for (const auto& [k, v] : sp.attrs)
      if (k == "outcome") program_fetch_ns_[v].push_back(sp.dur_ns);
  }
  if (program_lines_.size() < 20000) program_lines_.push_back(std::move(line));
}

double SpanLog::p50_ns(const std::string& name) const {
  std::vector<const Reservoir*> parts;
  for (const auto& pt : threads_) {
    auto it = pt->by_name.find(name);
    if (it != pt->by_name.end()) parts.push_back(&it->second);
  }
  return percentile(merged(parts), 0.5);
}

std::vector<std::string> SpanLog::summary() const {
  std::map<std::string, std::vector<const Reservoir*>> by_name;
  for (const auto& pt : threads_)
    for (const auto& [name, res] : pt->by_name) by_name[name].push_back(&res);
  std::vector<std::string> out;
  for (const auto& [name, parts] : by_name) {
    const auto v = merged(parts);
    uint64_t calls = 0;
    for (const Reservoir* p : parts) calls += p->seen();
    char buf[160];
    std::snprintf(buf, sizeof buf, "span %s: %llu calls, p50 %.4g us, p99 %.4g us",
                  name.c_str(), static_cast<unsigned long long>(calls),
                  percentile(v, 0.5) / 1e3, percentile(v, 0.99) / 1e3);
    out.push_back(buf);
  }
  return out;
}

double SpanLog::program_fetch_p50_ns(const std::string& outcome) const {
  std::lock_guard<std::mutex> lock(program_mu_);
  auto it = program_fetch_ns_.find(outcome);
  return it == program_fetch_ns_.end() ? 0 : percentile(it->second, 0.5);
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  for (size_t t = 0; t < threads_.size(); ++t)
    for (const Span& s : threads_[t]->spans)
      os << "{\"src\": \"bench\", \"thread\": " << t << ", \"trace\": "
         << s.trace << ", \"id\": " << s.id << ", \"parent\": " << s.parent
         << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
         << ", \"dur_ns\": " << s.dur_ns << "}\n";
  std::lock_guard<std::mutex> lock(program_mu_);
  for (const std::string& line : program_lines_) {
    // Program traces are already one JSON object per line; tag the source.
    os << "{\"src\": \"program\", " << line.substr(line.find('{') + 1);
    if (line.empty() || line.back() != '\n') os << '\n';
  }
  return static_cast<bool>(os);
}

// ---- Closed loop -------------------------------------------------------------

std::vector<uint64_t> BlockStats::sample() const {
  std::vector<const Reservoir*> parts;
  for (const auto& slice : slices)
    for (const auto& r : slice) parts.push_back(r.get());
  return merged(parts);
}

double BlockStats::tail_p99() const {
  std::vector<double> p99s;
  for (const auto& slice : slices) {
    std::vector<const Reservoir*> parts;
    uint64_t seen = 0;
    for (const auto& r : slice) {
      parts.push_back(r.get());
      seen += r->seen();
    }
    if (seen < kMinTailSample) return percentile(sample(), 0.99);
    p99s.push_back(percentile(merged(parts), 0.99));
  }
  return median_d(p99s);
}

BlockStats run_closed_loop(size_t clients, double seconds, SpanLog* spans,
                           const std::function<void(ClientCtx&)>& op,
                           uint64_t seq_base) {
  BlockStats st;
  std::vector<uint64_t> done(clients, 0), failed(clients, 0);

  st.slices.resize(kSlices);
  for (size_t k = 0; k < kSlices; ++k)
    for (size_t c = 0; c < clients; ++c)
      st.slices[k].push_back(
          std::make_unique<Reservoir>(1 << 16, mix(seq_base, k * clients + c)));
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  const uint64_t span_ns = static_cast<uint64_t>(seconds * 1e9);
  uint64_t t_start = 0;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientCtx ctx;
      ctx.client = c;
      ctx.seq = seq_base;
      ctx.spans = spans;
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const uint64_t deadline = t_start + span_ns;
      const uint64_t slice_ns = span_ns / kSlices + 1;
      uint64_t t0 = now_ns();
      while (t0 < deadline) {
        bool ok = true;
        try {
          op(ctx);
        } catch (...) {
          ok = false;
        }
        const uint64_t t1 = now_ns();
        st.slices[std::min<uint64_t>(kSlices - 1, (t0 - t_start) / slice_ns)][c]
            ->record(t1 - t0);
        ++(ok ? done[c] : failed[c]);
        ++ctx.seq;
        t0 = t1;
      }
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  t_start = now_ns();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  st.seconds = static_cast<double>(now_ns() - t_start) * 1e-9;
  for (size_t c = 0; c < clients; ++c) {
    st.done += done[c];
    st.failed += failed[c];
  }
  return st;
}

namespace {
void absorb(BlockStats& into, BlockStats&& b) {
  into.seconds += b.seconds;
  into.done += b.done;
  into.failed += b.failed;
  for (auto& slice : b.slices) into.slices.push_back(std::move(slice));

}
}  // namespace

namespace {
// (steal, total) jiffies summed over all CPUs.
std::pair<double, double> host_cpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double v = 0, total = 0, steal = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}
}  // namespace

Window run_window(const Args& args, size_t clients, SpanLog* spans,
                  const std::function<void(ClientCtx&)>& op) {
  Window w;
  const auto cpu0 = host_cpu();
  if (!args.trace) {
    w.untraced = run_closed_loop(clients, args.seconds, nullptr, op);
  } else {
    const double block = args.seconds / 4;
    uint64_t seq = 0;
    for (int b = 0; b < 4; ++b) {
      const bool traced = b % 2 == 1;
      spans->set_active(traced);
      BlockStats s =
          run_closed_loop(clients, block, traced ? spans : nullptr, op, seq);
      seq += s.done + s.failed + 1;
      absorb(traced ? w.traced : w.untraced, std::move(s));
    }
    spans->set_active(false);
  }
  const auto cpu1 = host_cpu();
  w.steal_pct = 100.0 * ratio(cpu1.first - cpu0.first, cpu1.second - cpu0.second);
  return w;
}

double Window::overhead_pct() const {
  const double u = untraced.qps(), t = traced.qps();
  return u > 0 ? (u - t) / u * 100.0 : 0;
}

double driver_overhead_ns() {
  Reservoir lat(1 << 16);
  std::vector<uint64_t> pool(1 << 16, 1);
  volatile uint64_t sink = 0;
  const size_t n = 1 << 20;
  const uint64_t start = now_ns();
  uint64_t t0 = start;
  for (size_t i = 0; i < n; ++i) {
    sink = sink + pool[(i * 40503) % pool.size()];
    const uint64_t t1 = now_ns();
    lat.record(t1 - t0);
    t0 = t1;
  }
  return static_cast<double>(now_ns() - start) / static_cast<double>(n);
}

double probe_ns(size_t reps, size_t group,
                const std::function<void(size_t)>& body) {
  group = std::max<size_t>(1, group);
  std::vector<double> per;
  size_t i = 0;
  while (i < reps) {
    const size_t g = std::min(group, reps - i);
    const uint64_t t0 = now_ns();
    for (size_t j = 0; j < g; ++j) body(i + j);
    per.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(g));
    i += g;
  }
  return median_d(per);
}

// ---- Registry ------------------------------------------------------------------

namespace {
bool component_matches(const std::string& name, const std::string& suffix) {
  return name == suffix ||
         (name.size() > suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0 &&
          name[name.size() - suffix.size() - 1] == '.');
}

const restorable::obs::MetricValue* find_in(
    const restorable::obs::ComponentSnapshot& c, const std::string& metric) {
  for (const auto& m : c.metrics)
    if (m.name == metric) return &m;
  return nullptr;
}

const restorable::obs::ComponentSnapshot* component(
    const restorable::obs::MetricsSnapshot& s, const std::string& name) {
  for (const auto& c : s.components)
    if (c.component == name) return &c;
  return nullptr;
}
}  // namespace

double RegistryDelta::counter(const std::string& comp,
                              const std::string& metric) const {
  double total = 0;
  for (const auto& c : after_.components) {
    if (!component_matches(c.component, comp)) continue;
    const auto* a = find_in(c, metric);
    if (!a) continue;
    const auto* bc = component(before_, c.component);
    const auto* b = bc ? find_in(*bc, metric) : nullptr;
    total += static_cast<double>(a->value - (b ? b->value : 0));
  }
  return total;
}

std::pair<double, double> RegistryDelta::histogram(
    const std::string& comp, const std::string& metric) const {
  double count = 0, sum = 0;
  for (const auto& c : after_.components) {
    if (!component_matches(c.component, comp)) continue;
    const auto* a = find_in(c, metric);
    if (!a) continue;
    const auto* bc = component(before_, c.component);
    const auto* b = bc ? find_in(*bc, metric) : nullptr;
    count += static_cast<double>(a->value - (b ? b->value : 0));
    sum += static_cast<double>(a->sum) - (b ? static_cast<double>(b->sum) : 0);
  }
  return {count, sum};
}

double RegistryDelta::gauge(const std::string& comp,
                            const std::string& metric) const {
  double total = 0;
  for (const auto& c : after_.components) {
    if (!component_matches(c.component, comp)) continue;
    if (const auto* a = find_in(c, metric))
      total += static_cast<double>(a->value);
  }
  return total;
}

// ---- Process accounting ----------------------------------------------------------

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0;
      is >> kb;
      return kb / 1024.0;
    }
  return 0;
}

void SetupTimes::add(const std::map<std::string, double>& one) {
  double total = 0;
  for (const auto& [name, s] : one) {
    phases[name].push_back(s);
    total += s;
  }
  totals.push_back(total);
}

void SetupTimes::report(Result& r) const {
  r.put("setup_s", median_d(totals), "s");
  for (const auto& [name, v] : phases) r.put("setup." + name + "_s", median_d(v), "s");
}

// ---- Budget table and traced-run output ---------------------------------------

void put_budget(Result& r, const std::string& what, double measured,
                const std::vector<std::pair<std::string, double>>& parts,
                const std::string& unit) {
  double sum = 0;
  std::string terms;
  for (const auto& [name, v] : parts) {
    sum += v;
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s%s=%.4g", terms.empty() ? "" : " + ",
                  name.c_str(), v);
    terms += buf;
  }
  const double gap = measured - sum;
  // A gap within a quarter of the measured cost is within what the probes'
  // own cache and scheduling differences explain.
  const bool explained = std::fabs(gap) <= 0.25 * std::fabs(measured);
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "%s: measured %.4g %s | layers %.4g %s (%s) | gap %.4g %s %s",
                what.c_str(), measured, unit.c_str(), sum, unit.c_str(),
                terms.c_str(), gap, unit.c_str(),
                explained ? "ok" : "UNEXPLAINED");
  r.budget.push_back(buf);
}

double get(const Result& r, const std::string& name) {
  for (const auto& [n, vu] : r.metrics)
    if (n == name) return vu.first;
  return 0;
}

void finish_trace(const Args& args, const SpanLog& spans, const Window& w,
                  Result& r) {
  r.put("obs.trace_overhead_pct", w.overhead_pct(), "%");
  r.put("bench.driver_ns", driver_overhead_ns(), "ns");
  for (const std::string& line : spans.summary()) r.note(line);
  if (!args.out_dir.empty()) {
    const std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    if (!spans.write(path)) r.note("could not write spans to " + path);
    else r.note("spans written to " + path);
  }
}

}  // namespace perfbench
