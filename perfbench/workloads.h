// The four workloads of the layered benchmark. Each runs in its own process,
// builds its inputs from the seed, measures one window, checks the answers it
// served, and (traced run) probes every layer on its blocking path.
#pragma once

#include <string>
#include <vector>

#include "core/rpts.h"
#include "graph/graph.h"
#include "harness.h"

namespace perfbench {

Result run_hot_read(const Args& args);
Result run_cold_read(const Args& args);
Result run_churn(const Args& args);
Result run_rp_offline(const Args& args);

// cold_read's input graph, generated and packed into an .rcsr image before
// the measured process starts (packing is input cost, loading is setup).
restorable::Graph cold_read_graph(uint64_t seed, bool tiny);
bool pack_cold_read(uint64_t seed, bool tiny, const std::string& path);

// The scheme every workload serves: the repository's default isolation-lemma
// scheme with a seed-derived weight draw. References rebuilt from scratch
// with the same seed tie-break bit-identically.
uint64_t scheme_seed(uint64_t seed);

// Probes of the graph, core and engine layers on a workload's own graph and
// trees. `batches` apply in order to a copy of `g`; `trees` are resident
// trees of `pi` at g's current topology (fault sets as in `reqs`).
struct LayerInputs {
  const restorable::IRpts* pi = nullptr;
  const restorable::Graph* g = nullptr;
  uint64_t scheme_seed = 0;
  const restorable::BatchSsspEngine* engine = nullptr;
  std::vector<restorable::SsspRequest> reqs;
  std::vector<restorable::SptHandle> trees;
  std::vector<std::vector<restorable::GraphDelta>> batches;
  std::string out_dir;
  bool probe_rcsr = true;  // false: graph.rcsr_* were measured in setup
  size_t sssp_reps = 3;
};
void probe_graph_core_engine(const LayerInputs& in, Result& r);

// Puts 0 for per-layer metrics of layers the workload never reaches, so the
// traced result always names every layer.
struct LayerMetric {
  std::string name;
  std::string unit;
};
void zero_layers(Result& r, const std::vector<LayerMetric>& names);
extern const std::vector<LayerMetric> kServingLayerNames;
extern const std::vector<LayerMetric> kAggregatorLayerNames;
extern const std::vector<LayerMetric> kRpLayerNames;
// End-to-end figures only one workload has (update latency, Algorithm-1
// wall time), also reported by the traced run of every workload.
extern const std::vector<LayerMetric> kWorkloadOnlyNames;

}  // namespace perfbench
