#include "core/query_selector.h"

#include <algorithm>
#include <cmath>

#include "core/sgan.h"
#include "prop/label_propagation.h"
#include "util/logging.h"
#include "obs/trace.h"
#include "util/parallel.h"

namespace gale::core {

namespace {

// Minimum candidates per shard for the greedy scans; the per-candidate
// work is a couple of flops (argmax) or one row distance (diversity), so
// shards need to be wide to beat the dispatch cost.
constexpr size_t kScanGrain = 512;

// Shard kernels are noinline free functions over plain pointers so the
// closure pointer never competes for registers in the hot loops
// (DESIGN.md §6).

// First-max-wins argmax of ½T(v) + λ·diversity over untaken candidates in
// [i0, i1); SIZE_MAX when the shard has none.
__attribute__((noinline)) void ArgmaxGainShard(
    const uint8_t* taken, const double* t_scores, const double* diversity_sum,
    double lambda, size_t i0, size_t i1, double* gain_out, size_t* idx_out) {
  double best_gain = -std::numeric_limits<double>::max();
  size_t best_idx = SIZE_MAX;
  for (size_t i = i0; i < i1; ++i) {
    if (taken[i]) continue;
    const double gain = 0.5 * t_scores[i] + lambda * diversity_sum[i];
    if (gain > best_gain) {
      best_gain = gain;
      best_idx = i;
    }
  }
  *gain_out = best_gain;
  *idx_out = best_idx;
}

// Adds d(h(u), h(chosen)) / mean_pairwise to diversity_sum[i] for every
// untaken candidate i in [i0, i1), u = unlabeled[i]. The distance is
// Matrix::RowDistanceSquared's serial chain, then one sqrt. Each i is a
// disjoint write, so the sums are the same bits at every thread count.
__attribute__((noinline)) void DiversityShard(
    const uint8_t* taken, const size_t* unlabeled, const double* embeddings,
    size_t cols, size_t chosen, double mean_pairwise, double* diversity_sum,
    size_t i0, size_t i1) {
  const double* b = embeddings + chosen * cols;
  for (size_t i = i0; i < i1; ++i) {
    if (taken[i]) continue;
    const double* a = embeddings + unlabeled[i] * cols;
    double acc = 0.0;
    for (size_t c = 0; c < cols; ++c) {
      const double d = a[c] - b[c];
      acc += d * d;
    }
    diversity_sum[i] += std::sqrt(acc) / mean_pairwise;
  }
}

}  // namespace

const char* QueryStrategyName(QueryStrategy s) {
  switch (s) {
    case QueryStrategy::kGale:
      return "GALE";
    case QueryStrategy::kRandom:
      return "GALE(-Ran.)";
    case QueryStrategy::kEntropy:
      return "GALE(-Ent.)";
    case QueryStrategy::kKmeans:
      return "GALE(-Kme.)";
  }
  return "?";
}

util::Result<void> QuerySelectorOptions::Validate() const {
  if (lambda_diversity < 0.0) {
    return util::Status::InvalidArgument(
        "QuerySelectorOptions: lambda_diversity must be >= 0");
  }
  if (cluster_multiplier < 1.0) {
    return util::Status::InvalidArgument(
        "QuerySelectorOptions: cluster_multiplier must be >= 1");
  }
  if (max_class_samples == 0) {
    return util::Status::InvalidArgument(
        "QuerySelectorOptions: max_class_samples must be > 0");
  }
  if (ppr_alpha <= 0.0 || ppr_alpha >= 1.0) {
    return util::Status::InvalidArgument(
        "QuerySelectorOptions: ppr_alpha must be in (0, 1)");
  }
  return {};
}

QuerySelector::QuerySelector(const la::SparseMatrix* walk_matrix,
                             QuerySelectorOptions options)
    : walk_matrix_(walk_matrix),
      options_(options),
      rng_(options.seed),
      ppr_(walk_matrix,
           prop::PprOptions{.alpha = options.ppr_alpha,
                            .cache_rows = options.memoization}),
      registry_(obs::CurrentRegistry() != nullptr ? obs::CurrentRegistry()
                                                  : &own_registry_),
      last_select_seconds_(
          registry_->gauge("gale.core.selector.last_select_seconds")),
      ppr_rows_computed_(
          registry_->gauge("gale.core.selector.ppr_rows_computed")) {
  GALE_CHECK(walk_matrix != nullptr);
}

util::Result<std::vector<size_t>> QuerySelector::Select(
    const la::Matrix& embeddings, const std::vector<int>& example_labels,
    const la::Matrix& class_probs, size_t k) {
  const util::Result<void> valid = options_.Validate();
  if (!valid.ok()) return valid.status();
  if (embeddings.rows() == 0) {
    return util::Status::InvalidArgument("QuerySelector: empty embeddings");
  }
  if (example_labels.size() != embeddings.rows()) {
    return util::Status::InvalidArgument(
        "QuerySelector: example_labels size mismatch");
  }
  if (k == 0) return std::vector<size_t>{};

  obs::Span span("gale.core.select");
  std::vector<size_t> unlabeled;
  for (size_t v = 0; v < example_labels.size(); ++v) {
    if (example_labels[v] == kUnlabeled) unlabeled.push_back(v);
  }
  if (unlabeled.empty()) {
    return util::Status::FailedPrecondition("QuerySelector: no unlabeled "
                                            "nodes left");
  }
  k = std::min(k, unlabeled.size());

  // Soft labels L_s via label propagation from the current examples: the
  // annotator's context for every strategy, and the clusT sets of kGale.
  soft_labels_.assign(example_labels.size(), kUnlabeled);
  if (std::any_of(example_labels.begin(), example_labels.end(), [](int l) {
        return l == kLabelError || l == kLabelCorrect;
      })) {
    util::Result<la::Matrix> soft = prop::PropagateLabels(
        *walk_matrix_, example_labels, 2,
        prop::LabelPropagationOptions{.alpha = options_.ppr_alpha});
    if (!soft.ok()) return soft.status();
    soft_labels_ = prop::HardLabels(soft.value(), kUnlabeled);
  }

  util::Result<std::vector<size_t>> result = [&]()
      -> util::Result<std::vector<size_t>> {
    switch (options_.strategy) {
      case QueryStrategy::kRandom:
        return SelectRandom(unlabeled, k);
      case QueryStrategy::kEntropy:
        return SelectEntropy(unlabeled, class_probs, k);
      case QueryStrategy::kKmeans:
        return SelectKmeans(unlabeled, embeddings, k);
      case QueryStrategy::kGale:
        return SelectGale(unlabeled, embeddings, class_probs, k);
    }
    return util::Status::Internal("unknown strategy");
  }();
  last_select_seconds_->Set(span.ElapsedSeconds());
  ppr_rows_computed_->Set(static_cast<double>(ppr_.num_computed_rows()));
  return result;
}

std::vector<size_t> QuerySelector::SelectRandom(
    const std::vector<size_t>& unlabeled, size_t k) {
  std::vector<size_t> picks =
      rng_.SampleWithoutReplacement(unlabeled.size(), k);
  std::vector<size_t> out;
  out.reserve(k);
  for (size_t i : picks) out.push_back(unlabeled[i]);
  return out;
}

std::vector<size_t> QuerySelector::SelectEntropy(
    const std::vector<size_t>& unlabeled, const la::Matrix& class_probs,
    size_t k) {
  if (class_probs.rows() == 0) {
    // Cold start: no model yet, entropy is undefined — fall back to random
    // (what uncertainty sampling degenerates to without a model).
    return SelectRandom(unlabeled, k);
  }
  std::vector<std::pair<double, size_t>> scored;
  scored.reserve(unlabeled.size());
  for (size_t v : unlabeled) {
    double entropy = 0.0;
    for (size_t c = 0; c < class_probs.cols(); ++c) {
      const double p = class_probs.At(v, c);
      if (p > 1e-12) entropy -= p * std::log(p);
    }
    scored.emplace_back(entropy, v);
  }
  std::partial_sort(scored.begin(), scored.begin() + static_cast<long>(k),
                    scored.end(), [](const auto& a, const auto& b) {
                      return a.first > b.first;
                    });
  std::vector<size_t> out;
  out.reserve(k);
  for (size_t i = 0; i < k; ++i) out.push_back(scored[i].second);
  return out;
}

util::Result<std::vector<size_t>> QuerySelector::SelectKmeans(
    const std::vector<size_t>& unlabeled, const la::Matrix& embeddings,
    size_t k) {
  la::Matrix candidate = embeddings.SelectRows(unlabeled);
  la::KMeansOptions km;
  km.num_clusters = k;
  util::Result<la::KMeansResult> clustering = la::KMeans(candidate, km, rng_);
  if (!clustering.ok()) return clustering.status();
  const la::KMeansResult& result = clustering.value();

  // One representative per cluster: the point nearest its centroid.
  const size_t num_clusters = result.centroids.rows();
  std::vector<size_t> best(num_clusters, SIZE_MAX);
  std::vector<double> best_dist(num_clusters,
                                std::numeric_limits<double>::max());
  for (size_t i = 0; i < unlabeled.size(); ++i) {
    const size_t c = result.assignments[i];
    if (result.distances[i] < best_dist[c]) {
      best_dist[c] = result.distances[i];
      best[c] = unlabeled[i];
    }
  }
  std::vector<size_t> out;
  for (size_t c = 0; c < num_clusters && out.size() < k; ++c) {
    if (best[c] != SIZE_MAX) out.push_back(best[c]);
  }
  // Top up from random picks if clusters collapsed.
  while (out.size() < k) {
    const size_t v = unlabeled[rng_.UniformInt(unlabeled.size())];
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  return out;
}

util::Result<std::vector<size_t>> QuerySelector::SelectGale(
    const std::vector<size_t>& unlabeled, const la::Matrix& embeddings,
    const la::Matrix& class_probs, size_t k) {
  // Discriminator predictions define the class sets C_l (none on cold
  // start).
  const std::vector<int> predicted =
      class_probs.rows() == embeddings.rows() && class_probs.cols() >= 2
          ? LabelsFromProbabilities(class_probs)
          : std::vector<int>(embeddings.rows(), kUnlabeled);

  TypicalityOptions typ;
  typ.use_topological = options_.use_topological_typicality;
  // k' between k and 3k (paper default).
  typ.num_clusters = static_cast<size_t>(std::clamp(
      options_.cluster_multiplier * static_cast<double>(k),
      static_cast<double>(k), 3.0 * static_cast<double>(k)));
  typ.max_class_samples = options_.max_class_samples;
  typ.seed = rng_.Next();
  util::Result<TypicalityResult> typicality = ComputeTypicality(
      embeddings, unlabeled, predicted, soft_labels_, ppr_, typ);
  if (!typicality.ok()) return typicality.status();
  const std::vector<double>& t_scores = typicality.value().typicality;

  // Normalize embedding distances by an estimate of the mean pairwise
  // distance so λ keeps the same meaning across embedding scales.
  double mean_pairwise = 0.0;
  {
    util::Rng probe_rng(options_.seed ^ 0xD157);
    const size_t probes = std::min<size_t>(128, unlabeled.size());
    size_t counted = 0;
    for (size_t i = 0; i < probes; ++i) {
      const size_t a = unlabeled[probe_rng.UniformInt(unlabeled.size())];
      const size_t b = unlabeled[probe_rng.UniformInt(unlabeled.size())];
      if (a == b) continue;
      mean_pairwise +=
          std::sqrt(embeddings.RowDistanceSquared(a, embeddings, b));
      ++counted;
    }
    mean_pairwise = counted > 0 ? mean_pairwise / counted : 1.0;
    if (mean_pairwise < 1e-9) mean_pairwise = 1.0;
  }

  // Greedy max-sum dispersion: B'_v(Q) = ½T(v) + λ Σ_{u in Q} d(v, u).
  // The prefix dictionary is re-published per Select call, so stale |Q|
  // entries from a larger previous k are erased first.
  obs::Span scan_span("gale.core.selector.greedy_scan");
  registry_->EraseGaugesWithPrefix(
      "gale.core.selector.typicality_by_prefix.");
  const size_t m = unlabeled.size();
  std::vector<size_t> selected;
  std::vector<uint8_t> taken(m, 0);
  std::vector<double> diversity_sum(m, 0.0);
  // Per-round scratch for the parallel scans.
  const size_t num_shards = util::NumReduceShards(m, kScanGrain);
  std::vector<double> shard_best_gain(num_shards);
  std::vector<size_t> shard_best_idx(num_shards);
  double prefix_typicality = 0.0;
  for (size_t round = 0; round < k; ++round) {
    // Candidate-scoring scan: per-shard argmax (first-max-wins inside a
    // shard), combined in ascending shard order with a strict '>' — the
    // same lowest-index tie-break as the serial scan, at any thread count.
    util::ParallelForShards(
        0, m, kScanGrain, [&](size_t s, size_t i0, size_t i1) {
          ArgmaxGainShard(taken.data(), t_scores.data(), diversity_sum.data(),
                          options_.lambda_diversity, i0, i1,
                          &shard_best_gain[s], &shard_best_idx[s]);
        });
    double best_gain = -std::numeric_limits<double>::max();
    size_t best_idx = SIZE_MAX;
    for (size_t s = 0; s < num_shards; ++s) {
      if (shard_best_idx[s] != SIZE_MAX && shard_best_gain[s] > best_gain) {
        best_gain = shard_best_gain[s];
        best_idx = shard_best_idx[s];
      }
    }
    if (best_idx == SIZE_MAX) break;
    taken[best_idx] = 1;
    const size_t chosen = unlabeled[best_idx];
    selected.push_back(chosen);
    prefix_typicality += t_scores[best_idx];
    registry_
        ->gauge("gale.core.selector.typicality_by_prefix." +
                std::to_string(selected.size()))
        ->Set(prefix_typicality);

    // Pairwise-diversity scan against the newly selected node.
    util::ParallelFor(0, m, kScanGrain, [&](size_t i0, size_t i1) {
      DiversityShard(taken.data(), unlabeled.data(), embeddings.RowPtr(0),
                     embeddings.cols(), chosen, mean_pairwise,
                     diversity_sum.data(), i0, i1);
    });
  }
  return selected;
}

}  // namespace gale::core
