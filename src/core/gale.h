// The GALE framework driver: the learning loop of Fig. 3.
//
//   1.  cold start — Q := S(∅, ∅, G, k);  Q̃ := A(Q, Ψ, G);  V_T := O(Q̃)
//   2.  (X_R, X_S) := GAugment(G, Ψ)            [done by the caller]
//   3.  (G, D) := SGAN(G, V_T, X_R, X_S)
//   4.  while i < T:
//         Q^i  := S(H_n(X_R), V_T, G, k)
//         Q̃^i := A(Q^i, Ψ, G)
//         Ṽ_T := sample(V_T, η);   V_T^i := Ṽ_T ∪ O(Q̃^i)
//         D^i := SGAND(G, V_T^i, X_R, X_S);  update M and H_n
//   5.  return M
//
// Run() executes steps 1 and 3 as iteration 0 of the same loop body as
// step 4: no η-sample, selection on X_R instead of H_n, SGAN instead of
// SGAND.
//
// The driver can be "interrupted" at any iteration: per-iteration
// predictions are recorded, and Run() returns the full telemetry used by
// the learning-cost experiments (Fig. 7(d)-(f)).
//
// Telemetry: Run() instruments itself with obs spans
// (gale.core.run > gale.core.iteration > gale.core.select / gale.core.train
// > gale.core.sgan.epoch, plus gale.prop.ppr.batch and gale.la.kmeans from
// the layers below) and selector counters, and snapshots everything into
// GaleResult.report. GaleIterationStats is a *view* computed from that
// report — there is no second timing mechanism. Set GALE_TRACE_DIR to
// export the report as JSON-lines metrics + a chrome://tracing trace.

#ifndef GALE_CORE_GALE_H_
#define GALE_CORE_GALE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/annotator.h"
#include "core/query_selector.h"
#include "core/sgan.h"
#include "detect/detector_library.h"
#include "detect/oracle.h"
#include "graph/attributed_graph.h"
#include "graph/constraints.h"
#include "la/matrix.h"
#include "la/sparse_matrix.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/status.h"

namespace gale::core {

struct GaleConfig {
  SganConfig sgan;
  QuerySelectorOptions selector;
  // Local budget k: queries per iteration.
  size_t local_budget = 10;
  // Iteration count T; total budget is T * local_budget.
  int iterations = 5;
  // Sampling rate η of the old examples when forming V_T^i (line 10):
  // new queries weigh more than the backlog.
  double sample_eta = 0.7;
  // Run the annotator on each query batch (oracle context + Exp-4).
  bool annotate_queries = true;
  uint64_t seed = 123;

  // Validates this config and its nested sgan/selector configs.
  // kInvalidArgument on the first field outside its documented domain;
  // called at the top of Gale::Run so bad configs fail before compute.
  util::Result<void> Validate() const;
};

// Per-iteration cost view over the span tree (see
// IterationStatsFromReport). `seconds` is the duration of the iteration
// span; select/train are the durations of its nested child spans, so by
// construction select_seconds + train_seconds <= seconds.
struct GaleIterationStats {
  int iteration = 0;
  double seconds = 0.0;           // wall time of this iteration
  double select_seconds = 0.0;    // query-selection share
  double train_seconds = 0.0;     // SGAN/SGAND share
  size_t new_examples = 0;
  size_t cumulative_queries = 0;
};

// Inputs to Gale::Run beyond the feature matrices. A struct so new
// optional inputs never grow the positional arity.
struct GaleRunInputs {
  // Optional pre-existing examples (per node, kUnlabeled elsewhere);
  // empty means a true cold start.
  std::vector<int> initial_labels;
  // Optional held-out labels for SGAN early stopping.
  std::vector<int> val_labels;
  // Optional observability sinks. When null, Run uses the ambient
  // obs context of the calling thread if one is installed (so runner
  // spans and the run's spans share one trace), else run-local
  // instances. GaleResult.report snapshots whichever pair was used.
  obs::Registry* registry = nullptr;
  obs::Trace* trace = nullptr;
};

struct GaleResult {
  std::vector<int> predicted;      // per node: kLabelError / kLabelCorrect
  la::Matrix probabilities;        // n x 2
  std::vector<int> example_labels;  // final V_T (kUnlabeled where unqueried)
  std::vector<Annotation> last_annotations;  // Q̃ of the final round
  // The trained discriminator's parameters, frozen for the serving layer
  // (serve::ScoringSnapshot::FromResult consumes this).
  DiscriminatorSnapshot discriminator;
  // Every counter, gauge, histogram, and span of the run. The accessors
  // below are views over this one report.
  obs::Report report;

  std::vector<GaleIterationStats> iterations() const;
  SelectorTelemetry selector_telemetry() const;
  double total_seconds() const;  // duration of the gale.core.run span
};

// Builds the per-iteration cost stats from a run report: one entry per
// completed gale.core.iteration span (spans of iterations aborted mid-way
// carry no "new_examples" arg and are skipped), with select/train filled
// from the nested child spans. Exposed as a free function so malformed
// reports can be fed to it under GALE_DEBUG_CHECKS (the nesting contract
// select + train <= seconds is DCHECKed here).
inline std::vector<GaleIterationStats> IterationStatsFromReport(
    const obs::Report& report) {
  std::vector<GaleIterationStats> stats;
  // span index -> index into `stats`, or -1.
  std::vector<int> stats_index(report.spans.size(), -1);
  for (size_t s = 0; s < report.spans.size(); ++s) {
    const obs::SpanRecord& span = report.spans[s];
    if (span.name == "gale.core.iteration") {
      if (!span.HasArg("new_examples")) continue;  // aborted iteration
      GaleIterationStats entry;
      entry.iteration = static_cast<int>(span.ArgOr("iteration", 0.0));
      entry.seconds = span.seconds();
      entry.new_examples =
          static_cast<size_t>(span.ArgOr("new_examples", 0.0));
      entry.cumulative_queries =
          static_cast<size_t>(span.ArgOr("cumulative_queries", 0.0));
      stats_index[s] = static_cast<int>(stats.size());
      stats.push_back(entry);
    } else if (span.parent >= 0 &&
               stats_index[static_cast<size_t>(span.parent)] >= 0) {
      GaleIterationStats& entry =
          stats[static_cast<size_t>(stats_index[span.parent])];
      if (span.name == "gale.core.select") {
        entry.select_seconds += span.seconds();
      } else if (span.name == "gale.core.train") {
        entry.train_seconds += span.seconds();
      }
    }
  }
  for (const GaleIterationStats& entry : stats) {
    // Children are nested inside the iteration span, so their durations
    // can never add up past the parent's (small slack for the ns -> double
    // conversions). A violation means the report was not produced by
    // properly nested spans.
    GALE_DCHECK_LE(entry.select_seconds + entry.train_seconds,
                   entry.seconds + 1e-9)
        << " iteration " << entry.iteration
        << ": select_seconds + train_seconds exceed the iteration span ";
  }
  return stats;
}

inline std::vector<GaleIterationStats> GaleResult::iterations() const {
  return IterationStatsFromReport(report);
}

inline SelectorTelemetry GaleResult::selector_telemetry() const {
  return SelectorTelemetryFromReport(report);
}

inline double GaleResult::total_seconds() const {
  for (const obs::SpanRecord& span : report.spans) {
    if (span.name == "gale.core.run") return span.seconds();
  }
  return 0.0;
}

class Gale {
 public:
  // `g`, `library` (with RunAll done) and `constraints` must outlive the
  // instance.
  Gale(const graph::AttributedGraph* g,
       const detect::DetectorLibrary* library,
       const std::vector<graph::Constraint>* constraints, GaleConfig config);

  // Runs the full loop. `x_real`/`x_synthetic` come from GAugment; labels
  // and optional observability sinks ride in `inputs`.
  util::Result<GaleResult> Run(const la::Matrix& x_real,
                               const la::Matrix& x_synthetic,
                               detect::Oracle& oracle,
                               const GaleRunInputs& inputs = {});

  const GaleConfig& config() const { return config_; }

  // The symmetric normalized adjacency D̃^{-1/2}ÃD̃^{-1/2} the run walks
  // on; the serving snapshot freezes a copy of it.
  const la::SparseMatrix& walk_matrix() const { return walk_matrix_; }

 private:
  const graph::AttributedGraph* graph_;
  const detect::DetectorLibrary* library_;
  const std::vector<graph::Constraint>* constraints_;
  GaleConfig config_;
  la::SparseMatrix walk_matrix_;
};

}  // namespace gale::core

#endif  // GALE_CORE_GALE_H_
