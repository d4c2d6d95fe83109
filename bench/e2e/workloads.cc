#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <string_view>
#include <utility>

#include "core/gale.h"
#include "core/query_selector.h"
#include "core/sgan.h"
#include "detect/oracle.h"
#include "eval/datasets.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "graph/attributed_graph.h"
#include "graph/feature_encoder.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "serve/batcher.h"
#include "serve/snapshot.h"
#include "speed_probe.h"
#include "store/delta_log.h"
#include "store/store.h"
#include "util/rng.h"
#include "util/status.h"

namespace gale::bench_e2e {
namespace {

// Every timing is a busy time scaled to a reference core: times
// kReferenceProbeSeconds over what the speed probe took meanwhile. The
// reference core runs the probe in 200 us, about what the host README.md
// describes takes at its slower level.
constexpr double kReferenceProbeSeconds = 200e-6;
// Set-up is repeated and its median reported, so work moved into set-up
// shows without one cold page-in deciding the number.
constexpr int kSetupRepeats = 3;
// Smoke runs use the SP generator at this scale (220 nodes).
constexpr double kSmokeScale = 0.05;

// Serving traffic. The mix is synthetic (no request trace exists for this
// system); each parameter stands for one property of the batcher:
// - max_batch 64, the largest batch bench_serve sweeps (its default is 8);
// - requests of 1..8 uniform nodes (mean 4.5), small against max_batch:
//   a batch is never split, and its cost is the per-request overhead plus
//   a few scored nodes;
// - one blocking caller in a closed loop, so every request takes the
//   whole path alone (hand-off to the worker, linger, score, hand-back)
//   and the process's busy time between sending and receiving is that
//   request's own;
// - uniform node ids: no locality for the scorer to exploit.
constexpr size_t kMaxBatch = 64;
constexpr size_t kMaxRequestNodes = 8;
// The first and every kCheckEvery-th response is re-scored directly.
constexpr uint64_t kCheckEvery = 1000;
// A fresh batcher takes over after this many requests (RunClosedLoop).
constexpr uint64_t kRequestsPerBatcher = 16384;
// Direct scorer timing: this many 64-node batches, median per call.
constexpr int kScorerReps = 200;

// Publish stream, also synthetic: seven of every eight batches are
// kAttributeDeltas attribute edits plus a label pair (see DeltaStream);
// every eighth is a single new edge, which forces a cold rebuild of the
// walk and the PPR rows. The 1-in-8 share of cold rebuilds puts them
// above the 87.5th percentile, so scaled_p90_ms is a cold rebuild and
// scaled_p50_ms an incremental publish. Every publish re-encodes the
// whole graph, so the number of attribute edits barely moves its cost;
// they make each epoch change feature values, which the incremental ==
// scratch check then compares. The label pair makes an incremental publish
// compute exactly one PPR row.
constexpr uint64_t kTopologyEvery = 8;
constexpr size_t kAttributeDeltas = 6;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "gale_bench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Unwrap(util::Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

void Fail(PassResult* out, std::string what) {
  out->correct = false;
  out->failures.push_back(std::move(what));
}

// Nearest-rank quantile of an already sorted sample; 0 when empty.
double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t n = sorted.size();
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return sorted[std::clamp<size_t>(rank, 1, n) - 1];
}

double Quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  return SortedQuantile(xs, q);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }


// Sum and count of the spans called `name`, from index `first` on.
struct SpanTotal {
  double seconds = 0.0;
  size_t count = 0;
};

SpanTotal SumSpans(const obs::Report& report, std::string_view name,
                   size_t first = 0) {
  SpanTotal total;
  for (size_t s = first; s < report.spans.size(); ++s) {
    if (report.spans[s].name != name) continue;
    total.seconds += report.spans[s].seconds();
    ++total.count;
  }
  return total;
}

void Export(const obs::Report& report, const std::string& dir,
            const std::string& stem, PassResult* out) {
  const util::Status status = obs::ExportReport(report, dir, stem);
  if (!status.ok()) Fail(out, "export " + stem + ": " + status.ToString());
}

// The workload's busy time and the wall time at one moment.
struct Stamp {
  double busy_s = 0.0;
  double wall_s = 0.0;
};

// One timed operation: the two stamps around it.
struct Interval {
  Stamp from;
  Stamp to;

  double busy_s() const { return to.busy_s - from.busy_s; }
};

// The benchmark's own observability for one pass: the clocks, with a
// SpeedSampler that runs until the pass's last timed operation, and the
// trace. A traced pass installs a Trace + Registry as the main thread's
// ambient context, so the spans Gale::Run opens nest under
// bench.<workload>.<phase>. An untraced pass installs nothing and every
// bench span is inert.
class PassObs {
 public:
  PassObs(std::string workload, bool traced) : workload_(std::move(workload)) {
    if (!traced) return;
    trace_.emplace();
    registry_.emplace();
    attach_.emplace(&*trace_, &*registry_);
  }

  bool traced() const { return trace_.has_value(); }

  // While sampling.
  Stamp Now() const { return {sampler_.BusySeconds(), WallSeconds()}; }

  // Ends the timed part of the pass: the checks after it run unprobed.
  void StopSampling() { sampler_.Stop(); }

  // The busy times of `ops` scaled to the reference core: each times how
  // much slower or faster than the reference the core ran meanwhile.
  // After StopSampling().
  std::vector<double> Scaled(const std::vector<Interval>& ops) const {
    std::vector<double> seconds;
    seconds.reserve(ops.size());
    for (const Interval& op : ops) {
      seconds.push_back(op.busy_s() * kReferenceProbeSeconds /
                        sampler_.ProbeOver(op.from.wall_s, op.to.wall_s));
    }
    return seconds;
  }

  // "bench.<workload>.<phase>", kept alive for the trace (which stores
  // the pointer). Main thread only.
  const char* Name(const std::string& phase) {
    return names_.insert("bench." + workload_ + "." + phase).first->c_str();
  }

  obs::Report Snapshot() const {
    return obs::Snapshot(registry_ ? &*registry_ : nullptr,
                         trace_ ? &*trace_ : nullptr);
  }

 private:
  std::string workload_;
  std::set<std::string> names_;
  std::optional<obs::Trace> trace_;
  std::optional<obs::Registry> registry_;
  std::optional<obs::ScopedObs> attach_;
  SpeedSampler sampler_;
};

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

struct Prepared {
  std::unique_ptr<eval::PreparedDataset> dataset;
  eval::ExampleSet examples;
  // Publish and serve workloads only.
  core::DiscriminatorSnapshot discriminator;
  std::unique_ptr<store::VersionedGraphStore> store;
  std::unique_ptr<store::PublishedSnapshot> epoch0;
};

// Example labels in the store's conventions: nodes outside the training
// pool are plain unlabeled nodes there.
std::vector<int> StoreLabels(const std::vector<int>& example_labels) {
  std::vector<int> labels = example_labels;
  for (int& label : labels) {
    if (label == eval::kExampleExcluded) label = core::kUnlabeled;
  }
  return labels;
}

Prepared SetUpOnce(const RunConfig& config, bool with_store, PassObs& obs) {
  Prepared p;
  {
    obs::Span span(obs.Name("prepare_dataset"));
    const eval::DatasetSpec spec = Unwrap(
        eval::DatasetByName("SP", config.smoke ? kSmokeScale : 1.0),
        "DatasetByName");
    p.dataset = Unwrap(eval::PrepareDataset(spec, config.seed),
                       "PrepareDataset");
    p.examples = Unwrap(
        eval::MakeExamples(*p.dataset,
                           {.initial_fraction = 0.1, .seed = config.seed}),
        "MakeExamples");
  }
  if (!with_store) return p;
  {
    obs::Span span(obs.Name("store_create"));
    const graph::FeatureEncoder encoder;
    core::Sgan sgan(encoder.RawDims(p.dataset->dirty),
                    eval::BenchSganConfig(config.seed));
    p.discriminator = sgan.ExportDiscriminator();
    p.store = Unwrap(
        store::VersionedGraphStore::Create(p.dataset->dirty.Clone(),
                                           StoreLabels(p.examples.labels)),
        "VersionedGraphStore::Create");
  }
  {
    obs::Span span(obs.Name("first_publish"));
    p.epoch0 = std::make_unique<store::PublishedSnapshot>(
        Unwrap(p.store->PublishSnapshot(p.discriminator), "first publish"));
  }
  return p;
}

// Sets up kSetupRepeats times, adds the set-ups to `setups`, and keeps
// the last one for the workload.
Prepared SetUp(const RunConfig& config, bool with_store, PassObs& obs,
               std::vector<Interval>* setups) {
  const int repeats = config.smoke ? 1 : kSetupRepeats;
  Prepared kept;
  for (int r = 0; r < repeats; ++r) {
    obs::Span span(obs.Name("setup"));
    const Stamp start = obs.Now();
    Prepared p = SetUpOnce(config, with_store, obs);
    setups->push_back({start, obs.Now()});
    kept = std::move(p);
  }
  return kept;
}

// Ends the timed part of a pass and sets the metrics every workload
// reports from the scaled busy times of its set-ups (setup_s, the median)
// and of its operations.
void FinishTiming(PassObs& obs, const std::vector<Interval>& setups,
                  const std::vector<Interval>& ops, PassResult* out) {
  obs.StopSampling();
  out->end_to_end["setup_s"] = Quantile(obs.Scaled(setups), 0.5);
  std::vector<double> op_seconds = obs.Scaled(ops);
  std::sort(op_seconds.begin(), op_seconds.end());
  double total = 0.0;
  for (const double s : op_seconds) total += s;
  out->end_to_end["scaled_p50_ms"] = SortedQuantile(op_seconds, 0.5) * 1e3;
  out->end_to_end["scaled_p90_ms"] = SortedQuantile(op_seconds, 0.9) * 1e3;
  out->end_to_end["scaled_ops_per_s"] =
      Ratio(static_cast<double>(op_seconds.size()), total);
  out->main_timing_s = SortedQuantile(op_seconds, 0.5);
  out->info["samples"] = static_cast<double>(op_seconds.size());
  // Unscaled, to see how far scaling moved the numbers.
  std::vector<double> busy;
  for (const Interval& op : ops) busy.push_back(op.busy_s());
  out->info["busy_p50_ms"] = Quantile(busy, 0.5) * 1e3;
}

// ---------------------------------------------------------------------------
// detect
// ---------------------------------------------------------------------------

// Per-iteration core, la and PPR metrics from the pass trace, in which
// every run of the pass is nested.
void DetectLayers(const obs::Report& report, size_t runs, size_t iterations,
                  PassResult* out) {
  const double iters = static_cast<double>(std::max<size_t>(1, iterations));
  const SpanTotal train = SumSpans(report, "gale.core.train");
  const SpanTotal epoch = SumSpans(report, "gale.core.sgan.epoch");
  const SpanTotal select = SumSpans(report, "gale.core.select");
  const SpanTotal scan = SumSpans(report, "gale.core.selector.greedy_scan");
  const SpanTotal kmeans = SumSpans(report, "gale.la.kmeans");
  const SpanTotal ppr = SumSpans(report, "gale.prop.ppr.batch");
  const SpanTotal iteration = SumSpans(report, "gale.core.iteration");
  const auto counter = [&report](const char* name) {
    return static_cast<double>(report.CounterOr(name));
  };

  std::map<std::string, double>& l = out->layers;
  l["core.train_ms"] = train.seconds * 1e3 / iters;
  l["core.sgan.epoch_ms"] = Ratio(epoch.seconds, epoch.count) * 1e3;
  l["core.sgan.epochs"] = static_cast<double>(epoch.count) / iters;
  l["core.select_ms"] = select.seconds * 1e3 / iters;
  l["core.selector.greedy_scan_ms"] = scan.seconds * 1e3 / iters;
  // Iteration time outside select and train: annotate, embeddings,
  // predict, label propagation.
  l["core.iteration_self_ms"] =
      (iteration.seconds - select.seconds - train.seconds) * 1e3 / iters;
  const double hits = counter("gale.core.selector.distance_cache_hits");
  const double misses = counter("gale.core.selector.distance_cache_misses");
  l["core.selector.distance_cache_hit_ratio"] = Ratio(hits, hits + misses);
  const double unchanged = counter("gale.core.selector.nodes_unchanged");
  const double changed = counter("gale.core.selector.nodes_changed");
  l["core.selector.nodes_unchanged_ratio"] =
      Ratio(unchanged, unchanged + changed);
  l["la.kmeans_ms"] = kmeans.seconds * 1e3 / iters;
  l["la.kmeans.calls"] = static_cast<double>(kmeans.count) / iters;
  l["prop.ppr.batch_ms"] = ppr.seconds * 1e3 / iters;
  // The gauge holds the rows one run's engine computed, and every run of
  // a pass has the same inputs.
  l["prop.ppr.rows_computed"] =
      report.GaugeOr("gale.core.selector.ppr_rows_computed") *
      static_cast<double>(runs) / iters;
}

// The annotator of a detection run: answers every query from the ground
// truth, as eval::RunGale's oracle does, and stamps the arrival of the
// first query of every batch of `batch`.
class StampingOracle : public detect::Oracle {
 public:
  StampingOracle(const graph::ErrorGroundTruth* truth, size_t batch,
                 const PassObs* obs)
      : truth_(truth), batch_(batch), obs_(obs) {}

  const std::vector<Stamp>& arrivals() const { return arrivals_; }

 protected:
  detect::NodeLabel LabelImpl(size_t v) override {
    // Label() has already counted this query.
    if ((num_queries() - 1) % batch_ == 0) arrivals_.push_back(obs_->Now());
    return truth_.Label(v);
  }

 private:
  detect::GroundTruthOracle truth_;
  size_t batch_;
  const PassObs* obs_;
  std::vector<Stamp> arrivals_;
};

// The settings of eval::RunGale at the dataset's own budget: kGale
// strategy, memoization, annotation, BenchSganConfig; K = 200 and k = 20
// on SP, so T = 10.
core::GaleConfig DetectConfig(const eval::PreparedDataset& ds,
                              const RunConfig& config) {
  core::GaleConfig c;
  c.sgan = eval::BenchSganConfig(config.seed);
  c.selector.strategy = core::QueryStrategy::kGale;
  c.selector.memoization = true;
  c.local_budget = ds.spec.local_budget;
  // The smoke graph's scaled budget leaves T = 1; three iterations keep
  // the iterative path in the smoke run.
  c.iterations = config.smoke
                     ? 3
                     : static_cast<int>(std::max<size_t>(
                           1, (ds.spec.total_budget + c.local_budget - 1) /
                                  c.local_budget));
  c.annotate_queries = true;
  c.seed = config.seed;
  return c;
}

// The annotator's waits of one run: from query batch b - 1 reaching the
// annotator to batch b reaching it, for b = 2..T-1. Each is one SGAN
// update (a fixed 15 epochs) plus the next selection. The wait for batch
// 1 is left out: it holds the cold-start training, whose early-stopped
// length follows each seed's validation loss more than the code.
void AddWaits(const StampingOracle& oracle, const core::GaleConfig& config,
              std::vector<Interval>* waits, PassResult* out) {
  const size_t batches = static_cast<size_t>(config.iterations);
  const size_t expected = batches * config.local_budget;
  if (oracle.num_queries() != expected) {
    Fail(out, "detect: the annotator answered " +
                  std::to_string(oracle.num_queries()) + " queries, not " +
                  std::to_string(expected));
    return;
  }
  const std::vector<Stamp>& a = oracle.arrivals();
  for (size_t b = 2; b < batches; ++b) waits->push_back({a[b - 1], a[b]});
}

void RunDetect(const RunConfig& config, PassObs& obs,
               const std::string& trace_dir, PassResult* out) {
  std::vector<Interval> setups;
  const Prepared p = SetUp(config, /*with_store=*/false, obs, &setups);
  const eval::PreparedDataset& ds = *p.dataset;
  const core::GaleConfig gale_config = DetectConfig(ds, config);
  core::GaleRunInputs inputs;
  inputs.initial_labels = p.examples.labels;
  inputs.val_labels = p.examples.val_labels;

  std::vector<Interval> waits;
  size_t runs = 0;
  std::vector<int> first_predicted;
  double first_f1 = 0.0;
  size_t iterations = 0;
  size_t stats_seen = 0;
  const obs::WallTimer window;
  double last_run_wall_s = 0.0;
  // Whole runs only; another starts when it should end inside the window.
  do {
    obs::Span span(obs.Name("gale_run"));
    const Stamp start = obs.Now();
    core::Gale gale(&ds.dirty, &ds.library, &ds.constraints, gale_config);
    StampingOracle oracle(&ds.truth, gale_config.local_budget, &obs);
    util::Result<core::GaleResult> result = gale.Run(
        ds.features.x_real, ds.features.x_synthetic, oracle, inputs);
    const Stamp end = obs.Now();
    last_run_wall_s = end.wall_s - start.wall_s;
    ++out->attempted;
    if (!result.ok()) {
      ++out->failed;
      Fail(out, "Gale::Run: " + result.status().ToString());
      break;
    }
    ++runs;
    AddWaits(oracle, gale_config, &waits, out);
    const core::GaleResult& r = result.value();
    // A traced pass nests every run into one trace, so the report holds
    // the iterations of earlier runs too.
    const std::vector<core::GaleIterationStats> stats = r.iterations();
    iterations += stats.size() - (obs.traced() ? stats_seen : 0);
    stats_seen = stats.size();

    const double f1 = eval::ComputeMetrics(eval::ToErrorFlags(r.predicted),
                                           ds.truth.is_error,
                                           ds.splits.test_mask)
                          .f1;
    if (r.predicted.size() != ds.dirty.num_nodes()) {
      Fail(out, "detect: predicted.size() != n");
    }
    if (!std::isfinite(f1) || f1 < 0.0 || f1 > 1.0) {
      Fail(out, "detect: f1 not in [0, 1]");
    }
    if (runs == 1) {
      first_predicted = r.predicted;
      first_f1 = f1;
    } else if (r.predicted != first_predicted ||
               std::memcmp(&f1, &first_f1, sizeof f1) != 0) {
      Fail(out, "detect: a repeated run with the same inputs differs");
    }
  } while (window.ElapsedSeconds() + last_run_wall_s <= config.seconds);

  FinishTiming(obs, setups, waits, out);
  out->info["f1"] = first_f1;
  out->info["runs"] = static_cast<double>(runs);

  if (!obs.traced()) return;
  const obs::Report report = obs.Snapshot();
  DetectLayers(report, runs, iterations, out);
  Export(report, trace_dir, "detect", out);
}

// ---------------------------------------------------------------------------
// publish
// ---------------------------------------------------------------------------

// The seeded mutation stream. Draws against the store's live state, so
// every attribute value has the declared kind, every new edge is new, and
// each label pair turns one node into an error seed and one error seed
// back into a correct node: the seed count, and with it the cost of a
// cold rebuild, stays constant, and every incremental epoch refreshes
// exactly one PPR row.
class DeltaStream {
 public:
  DeltaStream(const store::VersionedGraphStore* st, uint64_t seed)
      : st_(st), rng_(seed) {}

  store::DeltaBatch Next() {
    const graph::AttributedGraph& g = st_->graph();
    const size_t n = g.num_nodes();
    store::DeltaBatch batch;
    if (++count_ % kTopologyEvery == 0) {
      for (;;) {
        const size_t u = rng_.UniformInt(n);
        size_t v = rng_.UniformInt(n - 1);
        if (v >= u) ++v;
        const size_t type = rng_.UniformInt(g.num_edge_types());
        if (g.HasEdge(u, v, type)) continue;
        batch.push_back(store::Delta::UpsertEdge(u, v, type));
        return batch;
      }
    }
    for (size_t i = 0; i < kAttributeDeltas; ++i) {
      const size_t node = rng_.UniformInt(n);
      const size_t attr = rng_.UniformInt(g.num_attributes(node));
      std::string text = "v";
      const graph::AttributeValue value =
          g.attribute_def(node, attr).kind == graph::ValueKind::kNumeric
              ? graph::AttributeValue::Number(rng_.Uniform(0.0, 1000.0))
              : graph::AttributeValue::Text(
                    text.append(std::to_string(rng_.UniformInt(1000000))));
      batch.push_back(store::Delta::SetAttribute(node, attr, value));
    }
    const std::vector<int>& labels = st_->labels();
    std::vector<size_t> errors;
    for (size_t v = 0; v < n; ++v) {
      if (labels[v] == core::kLabelError) errors.push_back(v);
    }
    size_t minted = rng_.UniformInt(n);
    while (labels[minted] == core::kLabelError) minted = rng_.UniformInt(n);
    batch.push_back(store::Delta::SetLabel(minted, core::kLabelError));
    if (!errors.empty()) {
      batch.push_back(store::Delta::SetLabel(
          errors[rng_.UniformInt(errors.size())], core::kLabelCorrect));
    }
    return batch;
  }

 private:
  const store::VersionedGraphStore* st_;
  util::Rng rng_;
  uint64_t count_ = 0;
};

// The epochs (ApplyBatch + PublishSnapshot), their busy times by step,
// and what they did.
struct PublishLog {
  std::vector<Interval> epochs;
  std::vector<double> apply_s;
  std::vector<double> incremental_publish_s;
  std::vector<double> full_publish_s;
  size_t rows_refreshed = 0;
  size_t rows_reused = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::unique_ptr<store::PublishedSnapshot> last;
};

// Applies and publishes batches back to back until the window has passed,
// always at least one epoch.
void RunEpochs(store::VersionedGraphStore* st,
               const core::DiscriminatorSnapshot& discriminator,
               const RunConfig& config, PassObs& obs, PublishLog* log) {
  DeltaStream stream(st, config.seed);
  const char* apply_span = obs.Name("apply");
  const char* publish_span = obs.Name("publish");
  const obs::WallTimer window;
  do {
    const store::DeltaBatch batch = stream.Next();
    ++log->attempted;
    const Stamp start = obs.Now();
    const util::Status applied = [&] {
      obs::Span span(apply_span);
      return st->ApplyBatch(batch);
    }();
    const Stamp applied_at = obs.Now();
    if (!applied.ok()) {
      ++log->failed;
      log->errors.push_back("ApplyBatch: " + applied.ToString());
      continue;
    }
    util::Result<store::PublishedSnapshot> published = [&] {
      obs::Span span(publish_span);
      return st->PublishSnapshot(discriminator);
    }();
    const Stamp end = obs.Now();
    if (!published.ok()) {
      ++log->failed;
      log->errors.push_back("PublishSnapshot: " +
                            published.status().ToString());
      continue;
    }
    log->epochs.push_back({start, end});
    log->apply_s.push_back(applied_at.busy_s - start.busy_s);
    (published.value().full_rebuild ? log->full_publish_s
                                    : log->incremental_publish_s)
        .push_back(end.busy_s - applied_at.busy_s);
    log->rows_refreshed += published.value().ppr_rows_refreshed;
    log->rows_reused += published.value().ppr_rows_reused;
    log->last = std::make_unique<store::PublishedSnapshot>(
        std::move(published).value());
  } while (window.ElapsedSeconds() < config.seconds);
}

// The snapshot's serialized bytes (via a file under `work_dir`).
std::optional<std::string> SnapshotBytes(const serve::ScoringSnapshot& snapshot,
                                          const std::string& path,
                                          PassResult* out) {
  const util::Status saved = snapshot.Save(path);
  if (!saved.ok()) {
    Fail(out, "Save " + path + ": " + saved.ToString());
    return std::nullopt;
  }
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
  return bytes;
}

// The last incremental publish must be byte-identical to a from-scratch
// store over the end-state graph and labels.
void CheckPublished(const store::VersionedGraphStore& st,
                    const core::DiscriminatorSnapshot& discriminator,
                    const PublishLog& log, const RunConfig& config,
                    PassResult* out) {
  for (const std::string& error : log.errors) Fail(out, error);
  if (log.last == nullptr) {
    Fail(out, "publish: no epoch completed");
    return;
  }
  util::Result<std::unique_ptr<store::VersionedGraphStore>> scratch =
      store::VersionedGraphStore::Create(st.graph().Clone(), st.labels());
  if (!scratch.ok()) {
    Fail(out, "scratch Create: " + scratch.status().ToString());
    return;
  }
  util::Result<store::PublishedSnapshot> rebuilt =
      scratch.value()->PublishSnapshot(discriminator);
  if (!rebuilt.ok()) {
    Fail(out, "scratch publish: " + rebuilt.status().ToString());
    return;
  }
  std::error_code ignored;
  std::filesystem::create_directories(config.work_dir, ignored);
  const std::string base = config.work_dir + "/gale_bench_" +
                           std::to_string(config.seed);
  const std::optional<std::string> incremental =
      SnapshotBytes(log.last->snapshot, base + "_incremental.snap", out);
  const std::optional<std::string> from_scratch =
      SnapshotBytes(rebuilt.value().snapshot, base + "_scratch.snap", out);
  if (incremental && from_scratch && *incremental != *from_scratch) {
    Fail(out, "publish: incremental snapshot differs from a scratch rebuild");
  }
}

// Per-epoch store and PPR layer metrics; spans before `first_span` belong
// to set-up.
void PublishLayers(const obs::Report& store_report, size_t first_span,
                   const PublishLog& log, PassResult* out) {
  const double epochs =
      static_cast<double>(std::max<size_t>(1, log.epochs.size()));
  const auto ms_per_epoch = [&](const std::string& span) {
    return SumSpans(store_report, span, first_span).seconds * 1e3 / epochs;
  };
  std::map<std::string, double>& l = out->layers;
  l["prop.ppr.batch_ms"] = ms_per_epoch("gale.prop.ppr.batch");
  l["prop.ppr.rows_computed"] =
      static_cast<double>(log.rows_refreshed) / epochs;
  l["store.apply_us_p50"] = Quantile(log.apply_s, 0.5) * 1e6;
  for (const std::string stage : {"encode", "walk", "ppr", "assemble"}) {
    l["store.publish." + stage + "_ms"] =
        ms_per_epoch("gale.store.publish." + stage);
  }
  l["store.publish.incremental_p50_ms"] =
      Quantile(log.incremental_publish_s, 0.5) * 1e3;
  l["store.publish.full_p50_ms"] = Quantile(log.full_publish_s, 0.5) * 1e3;
  l["store.ppr_rows_reused_ratio"] =
      Ratio(static_cast<double>(log.rows_reused),
            static_cast<double>(log.rows_reused + log.rows_refreshed));
  l["store.full_rebuild_share"] =
      static_cast<double>(log.full_publish_s.size()) / epochs;
}

void RunPublish(const RunConfig& config, PassObs& obs,
                const std::string& trace_dir, PassResult* out) {
  std::vector<Interval> setups;
  Prepared p = SetUp(config, /*with_store=*/true, obs, &setups);
  const size_t first_span = p.store->ObsReport().spans.size();
  PublishLog log;
  RunEpochs(p.store.get(), p.discriminator, config, obs, &log);
  out->attempted = log.attempted;
  out->failed = log.failed;
  FinishTiming(obs, setups, log.epochs, out);
  CheckPublished(*p.store, p.discriminator, log, config, out);

  if (!obs.traced()) return;
  const obs::Report store_report = p.store->ObsReport();
  PublishLayers(store_report, first_span, log, out);
  Export(obs.Snapshot(), trace_dir, "publish", out);
  Export(store_report, trace_dir, "publish_store", out);
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

struct CheckedResponse {
  std::vector<size_t> nodes;
  std::vector<serve::NodeScore> scores;
};

// What the caller of the closed loop saw.
struct ServeLog {
  std::vector<Interval> requests;  // the completed ones
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<CheckedResponse> checked;
  // Summed over the loop's batchers, from their ObsReports after Stop.
  double batch_ns = 0.0;
  double batches = 0.0;
  double batch_nodes = 0.0;
  double rejected = 0.0;
  obs::Report last_report;  // the last batcher's, for the trace export
};

void NextRequest(util::Rng& rng, size_t n, serve::ScoreRequest* request) {
  request->node_ids.clear();
  const size_t count = 1 + rng.UniformInt(kMaxRequestNodes);
  for (size_t i = 0; i < count; ++i) {
    request->node_ids.push_back(rng.UniformInt(n));
  }
}

// Folds a stopped batcher's report into the log.
void AddBatcherReport(obs::Report report, ServeLog* log) {
  const auto batch = report.histograms.find("gale.serve.batch");
  if (batch != report.histograms.end()) {
    log->batch_ns += static_cast<double>(batch->second.sum);
    log->batches += static_cast<double>(batch->second.count);
  }
  const auto size = report.histograms.find("gale.serve.batch_size");
  if (size != report.histograms.end()) {
    log->batch_nodes += static_cast<double>(size->second.sum);
  }
  log->rejected += static_cast<double>(report.CounterOr("gale.serve.rejected"));
  log->last_report = std::move(report);
}

// Closed loop over `snapshot`: the caller sends its next request as soon
// as the previous one returns, until `seconds` of wall time have passed.
// A request's time is the process's busy time from sending to receiving:
// the caller's and the batcher worker's, the only two threads besides the
// speed sampler. A batcher keeps a span per batch, so a fresh one takes
// over every kRequestsPerBatcher requests, outside the timed calls, to
// bound memory.
ServeLog RunClosedLoop(const serve::ScoringSnapshot& snapshot,
                       const RunConfig& config, const PassObs& obs) {
  const size_t n = snapshot.num_nodes();
  util::Rng rng(config.seed);
  serve::ScoreRequest request;
  ServeLog log;
  const obs::WallTimer window;
  uint64_t k = 0;
  do {
    serve::RequestBatcher batcher(&snapshot, {.max_batch = kMaxBatch});
    const uint64_t end = k + kRequestsPerBatcher;
    for (; k < end && window.ElapsedSeconds() < config.seconds; ++k) {
      NextRequest(rng, n, &request);
      const Stamp sent = obs.Now();
      util::Result<std::vector<serve::NodeScore>> scores =
          batcher.Score(request);
      const Stamp received = obs.Now();
      ++log.attempted;
      if (!scores.ok()) {
        ++log.failed;
        log.errors.push_back("Score: " + scores.status().ToString());
        continue;
      }
      log.requests.push_back({sent, received});
      if (k % kCheckEvery == 0) {
        log.checked.push_back({request.node_ids, std::move(scores).value()});
      }
    }
    batcher.Stop();
    AddBatcherReport(batcher.ObsReport(), &log);
  } while (window.ElapsedSeconds() < config.seconds);
  return log;
}

// Sampled responses must be bit-identical to a direct scorer pass.
void CheckResponses(const serve::ScoringSnapshot& snapshot,
                    const ServeLog& log, PassResult* out) {
  for (const std::string& error : log.errors) Fail(out, error);
  if (log.checked.empty()) {
    Fail(out, "serve: no response sampled for checking");
    return;
  }
  serve::SnapshotScorer scorer(&snapshot, kMaxBatch);
  std::vector<serve::NodeScore> expected;
  for (const CheckedResponse& response : log.checked) {
    expected.resize(response.nodes.size());
    scorer.ScoreInto(response.nodes, expected.data());
    if (response.scores.size() != expected.size() ||
        std::memcmp(response.scores.data(), expected.data(),
                    expected.size() * sizeof(serve::NodeScore)) != 0) {
      Fail(out, "serve: a response differs from the direct scorer");
      return;
    }
  }
}

// Median nanoseconds per node of SnapshotScorer::ScoreInto on full
// 64-node batches, timed directly.
double ScorerNsPerNode(const serve::ScoringSnapshot& snapshot, uint64_t seed) {
  serve::SnapshotScorer scorer(&snapshot, kMaxBatch);
  util::Rng rng(seed);
  std::vector<size_t> nodes(kMaxBatch);
  std::vector<serve::NodeScore> scores(kMaxBatch);
  std::vector<double> per_call;
  for (int rep = 0; rep < kScorerReps; ++rep) {
    for (size_t& v : nodes) v = rng.UniformInt(snapshot.num_nodes());
    const double start = CpuSeconds();
    scorer.ScoreInto(nodes, scores.data());
    per_call.push_back(CpuSeconds() - start);
  }
  return Quantile(per_call, 0.5) * 1e9 / static_cast<double>(kMaxBatch);
}

void RunServe(const RunConfig& config, PassObs& obs,
              const std::string& trace_dir, PassResult* out) {
  std::vector<Interval> setups;
  const Prepared p = SetUp(config, /*with_store=*/true, obs, &setups);
  const serve::ScoringSnapshot& snapshot = p.epoch0->snapshot;
  const ServeLog log = [&] {
    obs::Span span(obs.Name("closed_loop"));
    return RunClosedLoop(snapshot, config, obs);
  }();
  out->attempted = log.attempted;
  out->failed = log.failed;
  FinishTiming(obs, setups, log.requests, out);
  CheckResponses(snapshot, log, out);

  if (!obs.traced()) return;
  std::map<std::string, double>& l = out->layers;
  l["serve.batch_mean_us"] = Ratio(log.batch_ns, log.batches) * 1e-3;
  l["serve.batch_nodes_mean"] = Ratio(log.batch_nodes, log.batches);
  l["serve.scorer_ns_per_node"] = ScorerNsPerNode(snapshot, config.seed);
  l["serve.rejected"] = log.rejected;
  l["serve.scaled_p99_us"] = Quantile(obs.Scaled(log.requests), 0.99) * 1e6;
  Export(obs.Snapshot(), trace_dir, "serve", out);
  Export(log.last_report, trace_dir, "serve_batcher", out);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "detect", "publish", "serve"};
  return kNames;
}

PassResult RunWorkload(const std::string& workload, const RunConfig& config,
                       const std::string& trace_dir) {
  PassResult out;
  PassObs obs(workload, !trace_dir.empty());
  if (workload == "detect") {
    RunDetect(config, obs, trace_dir, &out);
  } else if (workload == "publish") {
    RunPublish(config, obs, trace_dir, &out);
  } else if (workload == "serve") {
    RunServe(config, obs, trace_dir, &out);
  } else {
    Die("unknown workload '" + workload + "'");
  }
  return out;
}

}  // namespace gale::bench_e2e
