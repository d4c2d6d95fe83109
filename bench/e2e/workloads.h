// The workloads of gale_bench (README.md in this directory): each one is
// a fixed set of public calls into the library, driven from outside with
// seeded inputs, timed by the benchmark's own clock, and checked for
// correct outputs outside its timed window.

#ifndef GALE_BENCH_E2E_WORKLOADS_H_
#define GALE_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gale::bench_e2e {

struct RunConfig {
  uint64_t seed = 1;
  // Length of each workload's measuring window.
  double seconds = 10.0;
  // Tiny graph, one set-up, short windows: a functional check only.
  bool smoke = false;
  // Directory for the snapshot files the publish check compares.
  std::string work_dir = ".";
};

// Workload names in run order.
const std::vector<std::string>& WorkloadNames();

// One measuring pass over one workload. Metric names, units and
// directions live in BENCHMARK.json; the pass only reports values.
struct PassResult {
  bool correct = true;
  std::vector<std::string> failures;  // one line per failed check
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // End-to-end metrics of the pass; every workload sets all of them.
  std::map<std::string, double> end_to_end;
  // Per-layer metrics of the layers the workload reaches; filled only by
  // a traced pass.
  std::map<std::string, double> layers;
  // The timing trace.overhead_share compares between passes.
  double main_timing_s = 0.0;
  // Informational values that are neither gated nor per-layer (f1).
  std::map<std::string, double> info;
};

// Runs `workload` once. With `trace_dir` non-empty the pass is traced:
// the benchmark's own spans wrap each public call, the program's reports
// are exported to `trace_dir`, and the per-layer metrics are filled.
PassResult RunWorkload(const std::string& workload, const RunConfig& config,
                       const std::string& trace_dir);

}  // namespace gale::bench_e2e

#endif  // GALE_BENCH_E2E_WORKLOADS_H_
