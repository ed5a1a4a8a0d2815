// Probes of the graph, core and engine layers, shared by every workload:
// each times direct calls into one public function on the workload's own
// graph, trees and update batches.
#include <cstdio>
#include <unistd.h>

#include "graph/frozen_csr.h"
#include "serve/spt_cache.h"
#include "workloads.h"

namespace perfbench {

using namespace restorable;

const std::vector<LayerMetric> kRpLayerNames = {
    {"rp.oracle_prep_s", "s"}, {"rp.oracle_query_us", "us"},
    {"rp.bfs_query_us", "us"}, {"rp.alg1_ms", "ms"}, {"rp.naive_ms", "ms"}};

const std::vector<LayerMetric> kWorkloadOnlyNames = {
    {"update_p50_ms", "ms"}, {"update_p90_ms", "ms"}, {"subset_rp_s", "s"}};

void zero_layers(Result& r, const std::vector<LayerMetric>& names) {
  // 0 = the workload never calls into this layer.
  for (const auto& [name, unit] : names) {
    bool present = false;
    for (const auto& m : r.metrics) present = present || m.first == name;
    if (!present) r.put(name, 0, unit);
  }
}

namespace {

double time_ms(const std::function<void()>& f) {
  const uint64_t t0 = now_ns();
  f();
  return static_cast<double>(now_ns() - t0) / 1e6;
}

}  // namespace

void probe_graph_core_engine(const LayerInputs& in, Result& r) {
  const IRpts& pi = *in.pi;
  const Graph& g = *in.g;
  const Vertex n = g.num_vertices();
  Rng rng(mix(in.scheme_seed, 0x9a));

  // engine: one tree per spt_batch call, exact and at eps = 0.25, bypassing
  // every cache.
  std::vector<double> exact_ms, eps_ms;
  for (size_t i = 0; i < in.sssp_reps; ++i) {
    const Vertex root = static_cast<Vertex>(rng.next_below(n));
    const SsspRequest req{root, {}, Direction::kOut};
    SsspRequest eps_req = req;
    eps_req.eps_q = quantize_epsilon(0.25);
    exact_ms.push_back(time_ms([&] {
      (void)pi.spt_batch(std::span<const SsspRequest>(&req, 1), in.engine);
    }));
    eps_ms.push_back(time_ms([&] {
      (void)pi.spt_batch(std::span<const SsspRequest>(&eps_req, 1), in.engine);
    }));
  }
  r.put("engine.sssp_ms", median_d(exact_ms), "ms");
  r.put("engine.sssp_eps_ms", median_d(eps_ms), "ms");

  // core: path walks and compaction on a resident tree.
  const Spt& tree = *in.trees.at(0);
  std::vector<Vertex> targets(4096);
  for (auto& t : targets) t = static_cast<Vertex>(rng.next_below(n));
  r.put("core.path_walk_us", probe_ns(20000, 200, [&](size_t i) {
          (void)tree.path_to(targets[i % targets.size()]);
        }) / 1e3,
        "us");
  r.put("core.compact_us", probe_ns(10, 1, [&](size_t) {
          (void)(tree.is_compact() ? tree.thawed() : tree.compacted());
        }) / 1e3,
        "us");

  // graph: apply each captured batch in order to a copy, then snapshot.
  std::vector<double> apply_ms, snap_ms;
  for (int rep = 0; rep < 3 && !in.batches.empty(); ++rep) {
    Graph copy = g;
    for (const auto& b : in.batches) {
      apply_ms.push_back(time_ms([&] { (void)copy.apply(std::span<const GraphDelta>(b)); }));
      snap_ms.push_back(time_ms([&] { (void)copy.snapshot(); }));
    }
  }
  r.put("graph.apply_ms", median_d(apply_ms), "ms");
  r.put("graph.snapshot_ms", median_d(snap_ms), "ms");
  if (in.batches.empty()) r.note("no update batch: graph/core update probes read 0");

  if (in.probe_rcsr) {
    const std::string path = (in.out_dir.empty() ? std::string(".") : in.out_dir) +
                             "/probe-" + std::to_string(::getpid()) + ".rcsr";
    std::vector<double> load_ms, thaw_ms;
    if (FrozenCsr::freeze(g).write(path)) {
      for (int rep = 0; rep < 3; ++rep) {
        std::optional<FrozenCsr> f;
        load_ms.push_back(time_ms([&] { f = FrozenCsr::load(path); }));
        if (f) thaw_ms.push_back(time_ms([&] { (void)f->thaw(); }));
      }
      std::remove(path.c_str());
    }
    r.put("graph.rcsr_load_ms", median_d(load_ms), "ms");
    r.put("graph.thaw_ms", median_d(thaw_ms), "ms");
  }

  // spt_cache + core: the first batch against the resident trees -- the
  // survival predicate per tree, one advance_epoch walk over a cache holding
  // exactly them, and repair versus recompute of the trees it invalidates.
  if (in.batches.empty()) {
    zero_layers(r, {{"core.batch_survives_us", "us"},
                    {"cache.advance_epoch_ms", "ms"},
                    {"core.repair_ms", "ms"},
                    {"core.recompute_ms", "ms"}});
    return;
  }
  Graph after = g;
  const DeltaBatch db = after.apply(std::span<const GraphDelta>(in.batches[0]));
  const auto next = make_default_rpts(after, in.scheme_seed);
  auto survives = [&](const SsspRequest& q, const Spt& t) {
    return q.eps_q ? next->batch_survives_eps(db, t, q.faults, q.eps_q)
                   : next->batch_survives(db, t, q.faults);
  };
  std::vector<double> surv_us;
  std::vector<size_t> dead;
  for (int rep = 0; rep < 3; ++rep) {
    dead.clear();
    const uint64_t t0 = now_ns();
    for (size_t i = 0; i < in.trees.size(); ++i)
      if (!survives(in.reqs[i], *in.trees[i])) dead.push_back(i);
    surv_us.push_back(static_cast<double>(now_ns() - t0) / 1e3 /
                      static_cast<double>(in.trees.size()));
  }
  r.put("core.batch_survives_us", median_d(surv_us), "us");

  std::vector<double> advance_ms;
  const uint64_t sid = pi.scheme_id();
  for (int rep = 0; rep < 3; ++rep) {
    SptCache cache(SptCache::Config{16, size_t{1} << 40, 0.5, false});
    for (size_t i = 0; i < in.trees.size(); ++i)
      (void)cache.insert(SptKey(SchemeVersion{sid, db.old_epoch}, in.reqs[i]),
                         in.trees[i]);
    advance_ms.push_back(time_ms([&] {
      (void)cache.advance_epoch(sid, db.old_epoch, db.new_epoch,
                                [&](const SptKey& k, const Spt& t) {
                                  const FaultSet f = k.fault_set();
                                  return k.eps_q ? next->batch_survives_eps(db, t, f, k.eps_q)
                                                 : next->batch_survives(db, t, f);
                                });
    }));
  }
  r.put("cache.advance_epoch_ms", median_d(advance_ms), "ms");

  std::vector<double> repair_ms, recompute_ms;
  size_t repaired = 0;
  for (size_t i : dead) {
    const SsspRequest& q = in.reqs[i];
    if (q.eps_q || repair_ms.size() >= 3) continue;
    RepairOutcome out;
    repair_ms.push_back(time_ms([&] {
      out = next->repair_tree(*in.trees[i], db, q.faults, kDefaultRepairFraction);
    }));
    repaired += out.repaired;
    recompute_ms.push_back(time_ms([&] { (void)next->spt(q.root, q.faults); }));
  }
  r.put("core.repair_ms", median_d(repair_ms), "ms");
  r.put("core.recompute_ms", median_d(recompute_ms), "ms");
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "update probe: %zu of %zu resident trees invalidated, %zu of %zu "
                "probed repairs incremental",
                dead.size(), in.trees.size(), repaired, repair_ms.size());
  r.note(buf);
}

}  // namespace perfbench
