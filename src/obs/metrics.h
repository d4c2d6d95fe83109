// Metric registry: named counters, gauges, and log-scale histograms.
//
// A Registry is an ordered collection of metrics resolved by name once
// (resolution may allocate) and updated through stable pointers afterwards
// (updates never allocate — one add/store through the handle). Storage is
// a node-based std::map so handles stay valid across later registrations
// and every snapshot/export walks metrics in name order, which keeps the
// exported files deterministic.
//
// Naming scheme: `gale.<module>.<name>` (DESIGN.md §9), e.g.
// `gale.store.ppr_rows_reused`.
//
// Threading contract (same as la::Workspace, DESIGN.md §8): a Registry is
// driver-thread state. Metrics are registered and updated on the thread
// that owns the computation; parallel shards accumulate into per-shard
// partials that the driver folds into counters after the combine step.
// Nothing here is synchronized.
//
// ObsAllocations() counts every allocating observability event (metric
// registration, trace-node append). With no context attached the
// instrumentation layer must be allocation-free, and tests pin that by
// snapshotting this counter around an uninstrumented run — the same
// pattern as la::BufferAllocations() for the workspace arena.

#ifndef GALE_OBS_METRICS_H_
#define GALE_OBS_METRICS_H_

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace gale::obs {

// Monotonically increasing event count (queries issued, cache hits, ...).
class Counter {
 public:
  void Increment(uint64_t delta = 1) { value_ += delta; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

// Last-write-wins scalar (seconds of the latest selection, rows cached).
class Gauge {
 public:
  void Set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Fixed power-of-two bucket histogram for non-negative integer samples
// (span durations in nanoseconds). Bucket 0 holds the value 0; bucket b
// (b >= 1) holds values in [2^(b-1), 2^b). The bucket layout never
// depends on the data, so histograms filled by a deterministic event
// sequence are bitwise identical at any thread count.
class Histogram {
 public:
  // 0, then one bucket per bit of a uint64_t.
  static constexpr size_t kNumBuckets = 65;

  void Record(uint64_t sample) {
    ++count_;
    sum_ += sample;
    const size_t bucket =
        sample == 0 ? 0 : static_cast<size_t>(std::bit_width(sample));
    ++buckets_[bucket];
  }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  const std::array<uint64_t, kNumBuckets>& buckets() const {
    return buckets_;
  }

 private:
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  std::array<uint64_t, kNumBuckets> buckets_{};
};

// Named metric store. Instantiable (per run, per selector); a process-wide
// instance is not provided on purpose — every run snapshots its own
// registry into an obs::Report, so metrics never leak across runs.
class Registry {
 public:
  Registry() = default;

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Finds or registers the metric. The returned pointer is stable for the
  // registry's lifetime; only the first call for a name allocates.
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name);

  // Drops every gauge whose name starts with `prefix` (used by metrics
  // that are rebuilt wholesale each round, e.g. the typicality-by-prefix
  // family, so stale keys from a previous round cannot linger).
  void EraseGaugesWithPrefix(std::string_view prefix);

  const std::map<std::string, Counter, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, Gauge, std::less<>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

// Total allocating observability events so far (process-wide, driver
// thread only). Deltas of zero across a region prove the region ran with
// observability fully inert.
uint64_t ObsAllocations();

namespace internal {
uint64_t& ObsAllocationsRef();
}  // namespace internal

}  // namespace gale::obs

#endif  // GALE_OBS_METRICS_H_
