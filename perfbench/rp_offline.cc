// rp_offline: the paper's own structures. Setup builds the two-fault subset
// oracle; the window runs |F| = 2 oracle queries (closed loop, one client)
// for its first half and repeated Algorithm-1 subset replacement-path runs
// for its second half.
#include <algorithm>
#include <map>

#include "graph/bfs.h"
#include "graph/generators.h"
#include "rp/naive_rp.h"
#include "rp/subset_rp.h"
#include "rp/two_fault_oracle.h"
#include "workloads.h"

namespace perfbench {

using namespace restorable;

namespace {

struct OracleQuery {
  Vertex s1 = 0, s2 = 0;
  FaultSet faults;
};

struct OracleSample {
  size_t query = 0;
  int32_t ans = 0;
};

// |F| = 2 queries whose faults matter: the first on pi(s1, s2), the second
// on the path selected once the first has failed. The pool is large (its
// slowest 1% is what query_p99_us reads) and its trees come from two engine
// batches.
std::vector<OracleQuery> make_queries(const IRpts& pi,
                                      const std::vector<Vertex>& sources,
                                      size_t count, uint64_t seed,
                                      const BatchSsspEngine* engine) {
  Rng rng(seed);
  std::vector<SsspRequest> base_reqs;
  for (Vertex s : sources) base_reqs.push_back({s, {}, Direction::kOut});
  const auto bases = pi.spt_batch(base_reqs, engine);
  std::vector<OracleQuery> out;
  std::vector<SsspRequest> fault_reqs;
  while (out.size() < count) {
    const size_t i1 = rng.next_below(sources.size());
    const size_t i2 = rng.next_below(sources.size());
    if (i1 == i2) continue;
    const Path p = bases[i1]->path_to(sources[i2]);
    if (p.edges.empty()) continue;
    OracleQuery q;
    q.s1 = sources[i1];
    q.s2 = sources[i2];
    q.faults = FaultSet{p.edges[rng.next_below(p.edges.size())]};
    fault_reqs.push_back({q.s1, q.faults, Direction::kOut});
    out.push_back(std::move(q));
  }
  const EdgeId m = pi.graph().num_edges();
  constexpr size_t kChunk = 256;  // bounds the trees alive at once
  for (size_t c = 0; c < out.size(); c += kChunk) {
    const size_t len = std::min(kChunk, out.size() - c);
    const auto faulted = pi.spt_batch(
        std::span<const SsspRequest>(fault_reqs.data() + c, len), engine);
    for (size_t k = 0; k < len; ++k) {
      OracleQuery& q = out[c + k];
      const EdgeId e1 = *q.faults.begin();
      const Path p2 = faulted[k]->path_to(q.s2);
      EdgeId e2 = p2.edges.empty() ? static_cast<EdgeId>(rng.next_below(m))
                                   : p2.edges[rng.next_below(p2.edges.size())];
      if (e2 == e1) e2 = (e1 + 1) % m;
      q.faults = FaultSet{e1, e2};
    }
  }
  return out;
}

bool same_rp(const SubsetRpResult& a, const SubsetRpResult& b) {
  if (a.pairs.size() != b.pairs.size()) return false;
  for (size_t i = 0; i < a.pairs.size(); ++i) {
    const auto& x = a.pairs[i];
    const auto& y = b.pairs[i];
    if (x.s1 != y.s1 || x.s2 != y.s2 || x.replacement != y.replacement ||
        x.base_path.length() != y.base_path.length())
      return false;
  }
  return true;
}

}  // namespace

Result run_rp_offline(const Args& args) {
  Result r;
  const Vertex n = args.tiny ? 200 : 1600;
  const size_t sigma = args.tiny ? 4 : 8;
  std::unique_ptr<SpanLog> spans = args.trace ? std::make_unique<SpanLog>(1) : nullptr;

  struct Stack {
    Graph g;
    std::unique_ptr<IsolationRpts> pi;
    BatchSsspEngine engine{4};
    std::vector<Vertex> sources;
    std::unique_ptr<TwoFaultSubsetOracle> oracle;
  };
  std::unique_ptr<Stack> st;
  SetupTimes setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    st.reset();
    std::map<std::string, double> ph;
    Stopwatch sw;
    st = std::make_unique<Stack>();
    st->g = gnp_connected(n, 8.0 / n, mix(args.seed, 1));
    ph["gen"] = sw.seconds();
    sw.reset();
    st->pi = make_default_rpts(st->g, scheme_seed(args.seed));
    ph["scheme"] = sw.seconds();
    sw.reset();
    Rng rng(mix(args.seed, 2));
    std::vector<char> used(n, 0);
    while (st->sources.size() < sigma) {
      const Vertex v = static_cast<Vertex>(rng.next_below(n));
      if (!used[v]) st->sources.push_back(v);
      used[v] = 1;
    }
    st->oracle = std::make_unique<TwoFaultSubsetOracle>(*st->pi, st->sources,
                                                        &st->engine);
    ph["prep"] = sw.seconds();
    setup.add(ph);
  }
  setup.report(r);
  const auto queries = make_queries(*st->pi, st->sources, args.tiny ? 509 : 4093,
                                    mix(args.seed, 3), &st->engine);

  // First half: oracle queries.
  Args half = args;
  half.seconds = args.seconds / 2;
  std::vector<OracleSample> samples;
  const Window w = run_window(half, 1, spans.get(), [&](ClientCtx& ctx) {
    const size_t qi = ctx.seq % queries.size();
    const OracleQuery& q = queries[qi];
    int32_t ans;
    {
      SpanScope span(ctx.spans, 0, ctx.trace_id(), 0, -1, "rp.oracle_query");
      ans = st->oracle->query(q.s1, q.s2, q.faults);
    }
    if (ctx.seq % 37 == 0 && samples.size() < 400) samples.push_back({qi, ans});
  });
  // Second half: Algorithm 1, run after run.
  std::vector<double> alg1_s;
  SubsetRpResult last;
  const uint64_t end = now_ns() + static_cast<uint64_t>(args.seconds / 2 * 1e9);
  uint64_t runs = 0;
  while (alg1_s.empty() || now_ns() < end) {
    const uint64_t t0 = now_ns();
    {
      SpanScope span(spans.get(), 0, (uint64_t{1} << 40) | runs, 0, -1,
                     "rp.subset_replacement_paths");
      last = subset_replacement_paths(*st->pi, st->sources, &st->engine);
    }
    alg1_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    ++runs;
  }
  r.put("peak_rss_mb", peak_rss_mb(), "MB");
  const auto lat = w.untraced.sample();
  r.put("qps", w.untraced.qps(), "queries/s");
  r.put("query_p50_us", percentile(lat, 0.50) / 1e3, "us");
  r.put("query_p99_us", w.untraced.tail_p99() / 1e3, "us");
  r.put("queries", static_cast<double>(w.untraced.done), "count");
  r.put("host.steal_pct", w.steal_pct, "%");
  r.put("subset_rp_s", median_d(alg1_s), "s");
  r.put("subset_rp_runs", static_cast<double>(alg1_s.size()), "count");
  r.attempted = w.attempted() + runs;
  r.failed = w.failed();

  // Check: oracle answers against BFS on G \ F; Algorithm 1 against the
  // naive replacement-path computation.
  size_t checked = 0;
  for (const auto& s : samples) {
    const OracleQuery& q = queries[s.query];
    ++checked;
    if (s.ans != bfs_distance(st->g, q.s1, q.s2, q.faults)) {
      r.fail_check("oracle answer differs from BFS on G \\ F");
      break;
    }
  }
  double naive_ms = 0;
  {
    const uint64_t t0 = now_ns();
    const SubsetRpResult naive =
        naive_subset_replacement_paths(*st->pi, st->sources, &st->engine);
    naive_ms = static_cast<double>(now_ns() - t0) / 1e6;
    ++checked;
    if (!same_rp(last, naive))
      r.fail_check("Algorithm 1 differs from naive subset replacement paths");
  }
  r.put("checked_answers", static_cast<double>(checked), "count");
  if (samples.empty()) r.fail_check("no oracle answers were checked");

  if (!args.trace) return r;

  r.put("rp.oracle_prep_s", median_d(setup.phases.at("prep")), "s");
  r.put("rp.oracle_query_us", probe_ns(2048, 32, [&](size_t i) {
          const OracleQuery& q = queries[i % queries.size()];
          (void)st->oracle->query(q.s1, q.s2, q.faults);
        }) / 1e3,
        "us");
  r.put("rp.bfs_query_us", probe_ns(2048, 32, [&](size_t i) {
          const OracleQuery& q = queries[i % queries.size()];
          (void)bfs_distance(st->g, q.s1, q.s2, q.faults);
        }) / 1e3,
        "us");
  r.put("rp.alg1_ms", median_d(alg1_s) * 1e3, "ms");
  std::vector<double> naive_runs{naive_ms};
  for (int i = 0; i < 4; ++i) {
    const uint64_t t0 = now_ns();
    (void)naive_subset_replacement_paths(*st->pi, st->sources, &st->engine);
    naive_runs.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  r.put("rp.naive_ms", median_d(naive_runs), "ms");

  LayerInputs in;
  in.pi = st->pi.get();
  in.g = &st->g;
  in.scheme_seed = scheme_seed(args.seed);
  in.engine = &st->engine;
  for (Vertex s : st->sources) in.reqs.push_back({s, {}, Direction::kOut});
  in.trees = st->pi->spt_batch(in.reqs, &st->engine);
  {
    // One tree edge of the first source's tree, cut and healed.
    const Spt& t0 = *in.trees[0];
    for (Vertex v = 0; v < n; ++v)
      if (t0.parent_edge(v) != kNoEdge) {
        const Edge ends = st->g.endpoints(t0.parent_edge(v));
        in.batches = {{GraphDelta::remove(t0.parent_edge(v))},
                      {GraphDelta::insert(ends.u, ends.v)}};
        break;
      }
  }
  in.out_dir = args.out_dir;
  probe_graph_core_engine(in, r);
  zero_layers(r, kServingLayerNames);
  zero_layers(r, kAggregatorLayerNames);
  zero_layers(r, kWorkloadOnlyNames);

  put_budget(r, "rp_offline oracle query p50 (rp.oracle_query span)",
             spans->p50_ns("rp.oracle_query") / 1e3,
             {{"rp.oracle_query", get(r, "rp.oracle_query_us")}}, "us");
  finish_trace(args, *spans, w, r);
  return r;
}

}  // namespace perfbench
