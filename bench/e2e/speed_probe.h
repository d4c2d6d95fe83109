// The clocks and the speed probe of gale_bench (README.md in this
// directory, "How it times").

#ifndef GALE_BENCH_E2E_SPEED_PROBE_H_
#define GALE_BENCH_E2E_SPEED_PROBE_H_

#include <pthread.h>
#include <time.h>

#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace gale::bench_e2e {

// Busy time of the whole process, in seconds: the time its threads spent
// on a CPU. Time the guest kernel gave to other processes, or the
// hypervisor to other guests (steal time), does not count.
double CpuSeconds();

// Seconds on the monotonic wall clock.
double WallSeconds();

// Busy seconds of the calling thread for one run of a fixed,
// benchmark-private compute kernel (0.1 to 0.25 ms): how fast the core
// runs right now. The kernel is built with fixed flags (CMakeLists.txt),
// so a change to the library's flags moves the workloads but not the
// probe. It works on its caller's own buffers, so threads may probe at
// once.
double SpeedProbeSeconds();

// Samples the core's speed while a workload runs: a thread of its own,
// on the CPU the process is pinned to, runs the probe every
// kPeriodSeconds and records when it ran and how long it took.
class SpeedSampler {
 public:
  static constexpr double kPeriodSeconds = 0.02;
  // ProbeOver averages the samples up to this long before and after the
  // interval it is asked about, so a short operation still gets several.
  static constexpr double kMarginSeconds = 0.1;

  SpeedSampler();
  ~SpeedSampler();  // Stop()s

  SpeedSampler(const SpeedSampler&) = delete;
  SpeedSampler& operator=(const SpeedSampler&) = delete;

  // The process's busy time without the sampler thread's: the workload's.
  // Only while the sampler runs.
  double BusySeconds() const;

  // Stops and joins the sampler thread; later calls do nothing.
  void Stop();

  // The probe's mean busy time over the samples taken between the wall
  // times `from_s - kMarginSeconds` and `to_s + kMarginSeconds`, or the
  // nearest sample's when there is none. Only after Stop().
  double ProbeOver(double from_s, double to_s) const;

 private:
  void Loop();

  std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;  // guarded by mu_
  // Wall times and probe busy times of the samples, in time order, and
  // the prefix sums of the probe times; written by the sampler thread
  // under mu_, read by ProbeOver after Stop().
  std::vector<double> at_s_;
  std::vector<double> probe_sum_s_;
  std::thread thread_;
  clockid_t thread_clock_{};
};

}  // namespace gale::bench_e2e

#endif  // GALE_BENCH_E2E_SPEED_PROBE_H_
