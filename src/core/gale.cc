#include "core/gale.h"

#include <optional>

#include "obs/export.h"
#include "util/logging.h"

namespace gale::core {

util::Result<void> GaleConfig::Validate() const {
  if (local_budget == 0) {
    return util::Status::InvalidArgument(
        "GaleConfig: local_budget must be > 0");
  }
  if (iterations <= 0) {
    return util::Status::InvalidArgument("GaleConfig: iterations must be > 0");
  }
  if (sample_eta < 0.0 || sample_eta > 1.0) {
    return util::Status::InvalidArgument(
        "GaleConfig: sample_eta must be in [0, 1]");
  }
  const util::Result<void> sgan_valid = sgan.Validate();
  if (!sgan_valid.ok()) return sgan_valid;
  return selector.Validate();
}

Gale::Gale(const graph::AttributedGraph* g,
           const detect::DetectorLibrary* library,
           const std::vector<graph::Constraint>* constraints,
           GaleConfig config)
    : graph_(g),
      library_(library),
      constraints_(constraints),
      config_(std::move(config)) {
  GALE_CHECK(g != nullptr);
  GALE_CHECK(library != nullptr);
  GALE_CHECK(constraints != nullptr);
  GALE_CHECK(g->finalized());
  walk_matrix_ =
      la::SparseMatrix::NormalizedAdjacency(g->num_nodes(), g->EdgePairs());
}

util::Result<GaleResult> Gale::Run(const la::Matrix& x_real,
                                   const la::Matrix& x_synthetic,
                                   detect::Oracle& oracle,
                                   const GaleRunInputs& inputs) {
  // Reject bad configs with a coded error before any compute happens.
  {
    const util::Result<void> valid = config_.Validate();
    if (!valid.ok()) return valid.status();
  }
  const size_t n = graph_->num_nodes();
  if (x_real.rows() != n) {
    return util::Status::InvalidArgument("Gale::Run: X_R rows != |V|");
  }
  if (!inputs.initial_labels.empty() && inputs.initial_labels.size() != n) {
    return util::Status::InvalidArgument("Gale::Run: initial_labels size");
  }

  // Resolve the observability sinks: explicit inputs win, then the calling
  // thread's ambient context (so runner spans and run spans share one
  // trace), else run-local instances that live exactly as long as Run.
  obs::Trace* trace = inputs.trace != nullptr ? inputs.trace
                                              : obs::CurrentTrace();
  obs::Registry* registry = inputs.registry != nullptr
                                ? inputs.registry
                                : obs::CurrentRegistry();
  std::optional<obs::Trace> local_trace;
  std::optional<obs::Registry> local_registry;
  if (trace == nullptr) trace = &local_trace.emplace();
  if (registry == nullptr) registry = &local_registry.emplace();
  obs::ScopedObs obs_context(trace, registry);

  util::Rng rng(config_.seed);

  GaleResult result;
  std::vector<int> labels = inputs.initial_labels.empty()
                                ? std::vector<int>(n, kUnlabeled)
                                : inputs.initial_labels;

  QuerySelectorOptions selector_options = config_.selector;
  selector_options.seed = config_.seed ^ 0xA11CE;
  QuerySelector selector(&walk_matrix_, selector_options);
  Annotator annotator(graph_, library_, constraints_, &selector.ppr());
  Sgan sgan(x_real.cols(), config_.sgan);

  {
    obs::Span run_span("gale.core.run");

    // Fig. 3: select -> annotate -> label -> train, T rounds. Round 0 is
    // the cold start: there is no classifier yet, so Q^0 is chosen on the
    // raw features X_R without class probabilities, and training is the
    // full SGAN. Later rounds select on D's embeddings and refresh D with
    // SGAND.
    for (int i = 0; i < config_.iterations; ++i) {
      obs::Span iter_span("gale.core.iteration");
      iter_span.Arg("iteration", static_cast<double>(i));

      // D's outputs are needed only to select (none at the cold start), so
      // they are freed before training.
      util::Result<std::vector<size_t>> selected = [&] {
        if (i == 0) {
          return selector.Select(x_real, labels, la::Matrix(),
                                 config_.local_budget);
        }
        const SganPrediction prediction = sgan.Predict(x_real);
        return selector.Select(prediction.embeddings, labels,
                               prediction.probabilities, config_.local_budget);
      }();
      if (!selected.ok()) {
        // kFailedPrecondition: everything is labeled, nothing is left to
        // query. That is an error at the cold start and ends the run
        // later; the aborted iteration span carries no "new_examples" arg
        // and is skipped by IterationStatsFromReport.
        if (i > 0 && selected.status().code() ==
                         util::StatusCode::kFailedPrecondition) {
          break;
        }
        return selected.status();
      }
      const std::vector<size_t>& queries = selected.value();

      if (config_.annotate_queries) {
        result.last_annotations = annotator.AnnotateAll(
            queries, labels, selector.soft_labels());
      }

      // Line 10-11: V_T^i = sample(V_T, η) ∪ O(Q̃^i) — the fresh queries
      // always participate; the backlog is subsampled so new knowledge
      // weighs more in the incremental update.
      std::vector<int> update_labels(n, kUnlabeled);
      if (i > 0) {
        for (size_t v = 0; v < n; ++v) {
          if (labels[v] != kUnlabeled && rng.Bernoulli(config_.sample_eta)) {
            update_labels[v] = labels[v];
          }
        }
      }
      for (size_t q : queries) {
        const int answer = oracle.Label(q) == detect::NodeLabel::kError
                               ? kLabelError
                               : kLabelCorrect;
        labels[q] = answer;
        update_labels[q] = answer;
      }
      iter_span.Arg("new_examples", static_cast<double>(queries.size()));
      iter_span.Arg("cumulative_queries",
                    static_cast<double>(oracle.num_queries()));

      {
        obs::Span train_span("gale.core.train");
        if (i == 0) {
          GALE_RETURN_IF_ERROR(
              sgan.Train(x_real, labels, x_synthetic, inputs.val_labels));
        } else {
          GALE_RETURN_IF_ERROR(sgan.Update(x_real, update_labels, x_synthetic));
        }
      }
    }

    result.probabilities = sgan.PredictProbabilities(x_real);
    result.predicted = LabelsFromProbabilities(result.probabilities);
    result.discriminator = sgan.ExportDiscriminator();
    // Known example labels override model output (an oracle-labeled node's
    // label is definitive). Other non-unlabeled markers (e.g. excluded
    // evaluation nodes) keep the model's prediction.
    for (size_t v = 0; v < n; ++v) {
      if (labels[v] == kLabelError || labels[v] == kLabelCorrect) {
        result.predicted[v] = labels[v];
      }
    }
    result.example_labels = std::move(labels);
  }

  result.report = obs::Snapshot(registry, trace);
  const util::Status exported =
      obs::MaybeExportToEnvDir(result.report, "gale");
  if (!exported.ok()) {
    GALE_LOG(Warning) << "GALE_TRACE_DIR export failed: "
                      << exported.message();
  }
  return result;
}

}  // namespace gale::core
