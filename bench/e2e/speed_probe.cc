#include "speed_probe.h"

#include <algorithm>
#include <chrono>
#include <cstddef>

namespace gale::bench_e2e {
namespace {

// A 48×48 matrix product: 110592 scalar multiply-adds on 54 KiB, which
// stays in the core's own caches, so the probe times the core and not
// the shared cache or memory.
constexpr size_t kDim = 48;
constexpr int kRepeats = 2;

// Where the product goes, so the compiler cannot drop the kernel.
volatile double g_sink = 0.0;

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double CpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double WallSeconds() { return ClockSeconds(CLOCK_MONOTONIC); }

double SpeedProbeSeconds() {
  double a[kDim * kDim];
  double b[kDim * kDim];
  double c[kDim * kDim];
  for (size_t i = 0; i < kDim * kDim; ++i) {
    a[i] = 1.0 + 1e-6 * static_cast<double>(i);
    b[i] = 1.0 - 1e-6 * static_cast<double>(i);
    c[i] = 0.0;
  }
  const double start = ClockSeconds(CLOCK_THREAD_CPUTIME_ID);
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (size_t i = 0; i < kDim; ++i) {
      for (size_t k = 0; k < kDim; ++k) {
        const double aik = a[i * kDim + k];
        for (size_t j = 0; j < kDim; ++j) {
          c[i * kDim + j] += aik * b[k * kDim + j];
        }
      }
    }
  }
  const double seconds = ClockSeconds(CLOCK_THREAD_CPUTIME_ID) - start;
  g_sink = c[kDim * kDim - 1];
  return seconds;
}

SpeedSampler::SpeedSampler() {
  // The first sample, so ProbeOver always has one.
  at_s_.push_back(WallSeconds());
  probe_sum_s_.push_back(SpeedProbeSeconds());
  thread_ = std::thread([this] { Loop(); });
  pthread_getcpuclockid(thread_.native_handle(), &thread_clock_);
}

SpeedSampler::~SpeedSampler() { Stop(); }

double SpeedSampler::BusySeconds() const {
  return CpuSeconds() - ClockSeconds(thread_clock_);
}

void SpeedSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_one();
  if (thread_.joinable()) thread_.join();
}

double SpeedSampler::ProbeOver(double from_s, double to_s) const {
  const auto first =
      std::lower_bound(at_s_.begin(), at_s_.end(), from_s - kMarginSeconds);
  const auto last =
      std::upper_bound(first, at_s_.end(), to_s + kMarginSeconds);
  const auto sum_before = [this](size_t i) {
    return i == 0 ? 0.0 : probe_sum_s_[i - 1];
  };
  size_t begin = static_cast<size_t>(first - at_s_.begin());
  size_t end = static_cast<size_t>(last - at_s_.begin());
  if (begin == end) {
    // No sample in the interval: the nearest one.
    if (end == at_s_.size() ||
        (begin > 0 && from_s - at_s_[begin - 1] <= at_s_[end] - to_s)) {
      --begin;
    } else {
      ++end;
    }
  }
  return (sum_before(end) - sum_before(begin)) /
         static_cast<double>(end - begin);
}

void SpeedSampler::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_.wait_for(lock, std::chrono::duration<double>(kPeriodSeconds),
                   [this] { return stop_; });
    if (stop_) return;
    lock.unlock();
    const double at = WallSeconds();
    const double probe_s = SpeedProbeSeconds();
    lock.lock();
    at_s_.push_back(at);
    probe_sum_s_.push_back(probe_sum_s_.back() + probe_s);
  }
}

}  // namespace gale::bench_e2e
