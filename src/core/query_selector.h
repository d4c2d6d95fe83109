// Query selection module (Section V-B) with the memoization optimizations
// of Section VII.
//
// Strategies:
//  * kGale   — algorithm QSelect: greedy 2-approximation of the
//    diversified-typicality objective
//      Q = argmax_{|Q|=k}  T(Q) + λ Σ_{v,v' in Q} d(h(v), h(v'))
//    via marginal gains B'_v(Q) = ½T(v) + λ Σ_{u in Q} d(h(v), h(u))
//    (T is additive, so F_v(Q) = ½T(Q∪{v}) − ½T(Q) = ½T(v));
//  * kRandom — GALE(-Ran.): uniform sampling of unlabeled nodes;
//  * kEntropy — GALE(-Ent.): highest prediction entropy first;
//  * kKmeans — GALE(-Kme.): nodes nearest to k-means centroids.
//
// The greedy QSelect scans run on util::ParallelFor with fixed shard
// boundaries: the candidate argmax combines per-shard winners serially in
// shard order, and the pairwise-diversity scan writes one disjoint sum per
// candidate. Selection is bitwise identical at every GALE_NUM_THREADS
// setting.
//
// Memoization (toggle `memoization`; off reproduces U_GALE) is the PPR
// row cache inside the shared PprEngine: each row P_v is computed once and
// reused by typicality and the annotator across iterations. The selector
// also records a typicality dictionary keyed by |Q| (the greedy prefix
// objective, exposed for telemetry). Embedding distances are not cached:
// inside Gale::Run every chosen node is labeled before the next Select,
// so no (candidate, chosen) pair ever recurs.
//
// Telemetry flows through gale::obs: the selector resolves gauge
// handles under the metric prefix `gale.core.selector.` against the
// registry that is ambient at construction (the run's registry inside
// Gale::Run; a selector-owned fallback otherwise), and Select() opens a
// `gale.core.select` span. SelectorTelemetry is a *view* decoded from an
// obs::Report by SelectorTelemetryFromReport.

#ifndef GALE_CORE_QUERY_SELECTOR_H_
#define GALE_CORE_QUERY_SELECTOR_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "core/typicality.h"
#include "la/matrix.h"
#include "la/sparse_matrix.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "prop/ppr.h"
#include "util/rng.h"
#include "util/status.h"

namespace gale::core {

enum class QueryStrategy {
  kGale = 0,
  kRandom,
  kEntropy,
  kKmeans,
};

const char* QueryStrategyName(QueryStrategy s);

struct QuerySelectorOptions {
  QueryStrategy strategy = QueryStrategy::kGale;
  // λ of the diversity term.
  double lambda_diversity = 0.25;
  // k' = clamp(cluster_multiplier * k, k, 3k) clusters for clusT.
  double cluster_multiplier = 2.0;
  size_t max_class_samples = 48;
  double ppr_alpha = 0.15;
  // Disable the topological-typicality factor (clusT-only typicality) —
  // a bench_ablation knob.
  bool use_topological_typicality = true;
  // Section VII memoization (the PPR row cache) on/off (off = U_GALE).
  bool memoization = true;
  uint64_t seed = 11;

  // kInvalidArgument when any field is outside its documented domain;
  // checked at the top of QuerySelector::Select before any compute.
  util::Result<void> Validate() const;
};

// Telemetry view for the learning-cost experiments (Fig. 7(e)/(f)) —
// decoded from the `gale.core.selector.*` metrics of an obs::Report by
// SelectorTelemetryFromReport.
struct SelectorTelemetry {
  double last_select_seconds = 0.0;
  // PPR power iterations actually run (cache misses of P).
  size_t ppr_rows_computed = 0;
  // Typicality of the greedy prefix, keyed by |Q|.
  std::map<size_t, double> typicality_by_prefix;
};

// Decodes the selector metrics out of a report: gauges for the per-run
// scalars and the `gale.core.selector.typicality_by_prefix.<|Q|>` gauge
// family for the prefix dictionary.
inline SelectorTelemetry SelectorTelemetryFromReport(
    const obs::Report& report) {
  SelectorTelemetry t;
  t.last_select_seconds =
      report.GaugeOr("gale.core.selector.last_select_seconds");
  t.ppr_rows_computed = static_cast<size_t>(
      report.GaugeOr("gale.core.selector.ppr_rows_computed"));
  const std::string prefix = "gale.core.selector.typicality_by_prefix.";
  for (auto it = report.gauges.lower_bound(prefix);
       it != report.gauges.end() &&
       it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    t.typicality_by_prefix[std::stoul(it->first.substr(prefix.size()))] =
        it->second;
  }
  return t;
}

class QuerySelector {
 public:
  // `walk_matrix` (symmetric normalized adjacency) must outlive the
  // selector; it feeds the shared PPR engine and label propagation. The
  // selector binds to the obs registry ambient on the constructing thread
  // (or a private one when none is installed).
  QuerySelector(const la::SparseMatrix* walk_matrix,
                QuerySelectorOptions options);

  // Selects up to k unlabeled query nodes.
  //  * `embeddings` — one row per graph node (H_n(X_R); raw features on
  //    the cold-start call);
  //  * `example_labels` — per node: kLabelError/kLabelCorrect for current
  //    examples V_T, kUnlabeled otherwise (labeled nodes are excluded from
  //    the candidate pool and seed the label propagation of soft_labels());
  //  * `class_probs` — n x 2 discriminator probabilities; pass an empty
  //    matrix on cold start (entropy falls back to random, topoT to 1).
  util::Result<std::vector<size_t>> Select(const la::Matrix& embeddings,
                                           const std::vector<int>& example_labels,
                                           const la::Matrix& class_probs,
                                           size_t k);

  // Snapshot of the selector metrics, decoded into the view struct.
  SelectorTelemetry telemetry() const {
    return SelectorTelemetryFromReport(obs::Snapshot(registry_, nullptr));
  }
  // L_s of the last Select that got to selecting (k > 0 and some node
  // unlabeled): label propagation from its example labels at `ppr_alpha`,
  // hardened to kLabelError/kLabelCorrect; kUnlabeled where no example
  // reaches (everywhere when there is no example yet).
  const std::vector<int>& soft_labels() const { return soft_labels_; }
  prop::PprEngine& ppr() { return ppr_; }
  const QuerySelectorOptions& options() const { return options_; }

 private:
  std::vector<size_t> SelectRandom(const std::vector<size_t>& unlabeled,
                                   size_t k);
  std::vector<size_t> SelectEntropy(const std::vector<size_t>& unlabeled,
                                    const la::Matrix& class_probs, size_t k);
  util::Result<std::vector<size_t>> SelectKmeans(
      const std::vector<size_t>& unlabeled, const la::Matrix& embeddings,
      size_t k);
  util::Result<std::vector<size_t>> SelectGale(
      const std::vector<size_t>& unlabeled, const la::Matrix& embeddings,
      const la::Matrix& class_probs, size_t k);

  const la::SparseMatrix* walk_matrix_;
  QuerySelectorOptions options_;
  util::Rng rng_;
  prop::PprEngine ppr_;
  std::vector<int> soft_labels_;

  // Metric sinks: `registry_` is the ambient registry at construction or
  // `own_registry_`; the handles below are stable pointers into it
  // (resolved once, bumped pointer-cheap on the hot paths).
  obs::Registry own_registry_;
  obs::Registry* registry_;
  obs::Gauge* last_select_seconds_;
  obs::Gauge* ppr_rows_computed_;
};

}  // namespace gale::core

#endif  // GALE_CORE_QUERY_SELECTOR_H_
