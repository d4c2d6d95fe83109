// gale_bench: the repository's end-to-end benchmark (README.md in this
// directory). It times the paths a user waits on — a GALE detection run,
// a store publish stream, and served scores — through the library's public
// calls, single-threaded, by the process's busy (CPU) time scaled to a
// reference core, and checks their outputs outside the timed windows.
//
// Usage: gale_bench [--workload NAME]... [--seed N] [--seconds S]
//                   [--trace DIR] [--smoke] [--work-dir DIR]
//
// Output (stdout, one JSON object per line): an environment stamp, then
// per workload the end-to-end metric values of an untraced pass and, with
// --trace, the per-layer values of a second, traced pass. The traced pass
// writes chrome://tracing and JSON-lines exports plus layers.json to DIR.
// Units, directions and bounds are not printed here: BENCHMARK.json
// declares them and run.py attaches them.
// Exit status: 0 when every check passed, 1 when one failed, 2 on a usage
// or set-up error.

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "la/simd.h"
#include "speed_probe.h"
#include "util/parallel.h"
#include "workloads.h"

namespace gale::bench_e2e {
namespace {

struct Args {
  std::vector<std::string> workloads;
  RunConfig config;
  std::string trace_dir;
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "gale_bench: %s\n"
               "usage: gale_bench [--workload NAME]... [--seed N] "
               "[--seconds S] [--trace DIR] [--smoke] [--work-dir DIR]\n",
               error.c_str());
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  bool seconds_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.config.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workloads.push_back(value);
    } else if (flag == "--seed") {
      args.config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.config.seconds > 0.0)) {
        Usage("bad --seconds " + value);
      }
      seconds_given = true;
    } else if (flag == "--trace") {
      args.trace_dir = value;
    } else if (flag == "--work-dir") {
      args.config.work_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.config.smoke && !seconds_given) args.config.seconds = 0.3;
  if (args.workloads.empty()) args.workloads = WorkloadNames();
  for (const std::string& w : args.workloads) {
    bool known = false;
    for (const std::string& name : WorkloadNames()) known = known || w == name;
    if (!known) Usage("unknown workload " + w);
  }
  return args;
}

std::string Json(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Without this overload a string literal would convert to bool.
std::string Json(const char* s) { return Json(std::string_view(s)); }

// Every digit of the measurement; a non-finite value becomes null, which
// run.py rejects.
std::string Json(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Json(bool b) { return b ? "true" : "false"; }

// The build configuration. Timings from an unoptimized, assert-enabled,
// sanitized or contract-checked build are marked invalid.
struct BuildInfo {
  std::string compiler;
  bool optimized = false;
  bool ndebug = false;
  std::string sanitizer;
  bool debug_checks = false;

  bool valid() const {
    return optimized && ndebug && sanitizer.empty() && !debug_checks;
  }
};

BuildInfo ThisBuild() {
  BuildInfo b;
#if defined(__clang__)
  b.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  b.compiler = std::string("gcc ") + __VERSION__;
#endif
#if defined(__OPTIMIZE__)
  b.optimized = true;
#endif
#if defined(NDEBUG)
  b.ndebug = true;
#endif
  b.sanitizer = GALE_BENCH_SANITIZE;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  if (b.sanitizer.empty()) b.sanitizer = "yes";
#endif
#if defined(GALE_DEBUG_CHECKS)
  b.debug_checks = true;
#endif
  return b;
}

// Pins the process to the CPU it is running on and returns that CPU, or
// -1 when it cannot. Threads started later inherit the mask, so the serve
// caller and the batcher worker hand requests over by switching on one
// core, and no thread moves to a core whose caches are cold.
int PinToOneCpu() {
#if defined(__linux__)
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
#else
  return -1;
#endif
}

std::string EnvLine(const Args& args, const BuildInfo& build, int cpu) {
  std::string line = "{\"env\":{";
  line += "\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  line += ",\"parallelism\":" + std::to_string(util::Parallelism());
  line += ",\"pinned_cpu\":" + std::to_string(cpu);
  std::vector<double> probe_s;
  for (int r = 0; r < 11; ++r) probe_s.push_back(SpeedProbeSeconds());
  std::sort(probe_s.begin(), probe_s.end());
  line += ",\"speed_probe_us\":" + Json(probe_s[5] * 1e6);
  line += ",\"simd_isa\":" + Json(la::simd::IsaName(la::simd::ActiveIsa()));
  line += ",\"compiler\":" + Json(build.compiler);
  line += ",\"optimized\":" + Json(build.optimized);
  line += ",\"ndebug\":" + Json(build.ndebug);
  line += ",\"sanitizer\":" + Json(build.sanitizer);
  line += ",\"debug_checks\":" + Json(build.debug_checks);
  line += ",\"valid\":" + Json(build.valid());
  line += "},\"seed\":" + std::to_string(args.config.seed);
  line += ",\"seconds\":" + Json(args.config.seconds);
  line += ",\"smoke\":" + Json(args.config.smoke) + "}";
  return line;
}

// Name -> value only: units, directions and the layer map are attached
// from BENCHMARK.json and layer_map.json by run.py.
std::string MetricsJson(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ",";
    out += Json(name) + ":" + Json(value);
  }
  return out + "}";
}

std::string ResultLine(const std::string& workload, const char* pass,
                       const BuildInfo& build, const PassResult& r,
                       const std::string& metrics) {
  std::string line = "{\"workload\":" + Json(workload);
  line += ",\"pass\":" + Json(pass);
  line += ",\"valid\":" + Json(build.valid());
  line += ",\"correct\":" + Json(r.correct);
  line += ",\"attempted\":" + std::to_string(r.attempted);
  line += ",\"failed\":" + std::to_string(r.failed);
  line += ",\"failures\":[";
  for (size_t i = 0; i < r.failures.size(); ++i) {
    if (i > 0) line += ",";
    line += Json(r.failures[i]);
  }
  line += "],\"metrics\":" + metrics + ",\"info\":{";
  bool first = true;
  for (const auto& [key, value] : r.info) {
    if (!first) line += ",";
    line += Json(key) + ":" + Json(value);
    first = false;
  }
  return line + "}}";
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  const BuildInfo build = ThisBuild();
  // The library's pool runs one thread. On a shared host a parallel step
  // waits for its slowest shard, so one preempted worker stalls it; with
  // one thread every timing is the busy time of a single core's work.
  util::SetParallelism(1);
  const int cpu = PinToOneCpu();
  if (!args.trace_dir.empty()) {
    std::error_code error;
    std::filesystem::create_directories(args.trace_dir, error);
    if (error) {
      Usage("cannot create " + args.trace_dir + ": " + error.message());
    }
  }
  std::printf("%s\n", EnvLine(args, build, cpu).c_str());
  std::fflush(stdout);

  bool all_correct = true;
  std::string layers_json;
  for (const std::string& workload : args.workloads) {
    const PassResult untraced = RunWorkload(workload, args.config, "");
    all_correct = all_correct && untraced.correct;
    std::printf("%s\n",
                ResultLine(workload, "end_to_end", build, untraced,
                           MetricsJson(untraced.end_to_end))
                    .c_str());
    std::fflush(stdout);
    if (args.trace_dir.empty()) continue;

    PassResult traced = RunWorkload(workload, args.config, args.trace_dir);
    all_correct = all_correct && traced.correct;
    traced.layers["trace.overhead_share"] =
        untraced.main_timing_s > 0.0
            ? traced.main_timing_s / untraced.main_timing_s - 1.0
            : 0.0;
    const std::string layers = MetricsJson(traced.layers);
    std::printf(
        "%s\n",
        ResultLine(workload, "per_layer", build, traced, layers).c_str());
    std::fflush(stdout);
    if (!layers_json.empty()) layers_json += ",";
    layers_json += Json(workload) + ":" + layers;
  }

  if (!args.trace_dir.empty()) {
    const std::string path = args.trace_dir + "/layers.json";
    std::ofstream out(path, std::ios::trunc);
    out << "{\"seed\":" << args.config.seed << ",\"workloads\":{"
        << layers_json << "}}\n";
    if (!out) {
      std::fprintf(stderr, "gale_bench: cannot write %s\n", path.c_str());
      return 2;
    }
  }
  return all_correct ? 0 : 1;
}

}  // namespace
}  // namespace gale::bench_e2e

int main(int argc, char** argv) { return gale::bench_e2e::Main(argc, argv); }
