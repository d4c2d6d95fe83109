// Integration tests of the full GALE loop (Fig. 3).

#include "core/gale.h"

#include <gtest/gtest.h>

#include "core/augment.h"
#include "detect/oracle.h"
#include "eval/metrics.h"
#include "graph/error_injector.h"
#include "graph/synthetic_dataset.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace gale::core {
namespace {

struct Fixture {
  graph::SyntheticDataset dataset;
  std::vector<graph::Constraint> constraints;
  graph::AttributedGraph dirty;
  graph::ErrorGroundTruth truth;
  detect::DetectorLibrary library;
  AugmentResult features;
};

Fixture MakeFixture(uint64_t seed = 4) {
  graph::SyntheticConfig config;
  config.num_nodes = 700;
  config.num_edges = 900;
  config.seed = seed;
  auto ds = graph::GenerateSynthetic(config);
  EXPECT_TRUE(ds.ok());
  graph::ConstraintMiner miner({.min_support = 10, .min_confidence = 0.8});
  auto constraints = miner.Mine(ds.value().graph);
  EXPECT_TRUE(constraints.ok());

  Fixture f{std::move(ds).value(), std::move(constraints).value(),
            {}, {}, {}, {}};
  f.dirty = f.dataset.graph.Clone();
  graph::ErrorInjectorConfig inject;
  inject.node_error_rate = 0.06;
  inject.seed = seed ^ 0xAB;
  auto truth = graph::ErrorInjector(inject).Inject(f.dirty, f.constraints);
  EXPECT_TRUE(truth.ok());
  f.truth = std::move(truth).value();
  f.library = detect::DetectorLibrary::MakeDefault(f.constraints);
  EXPECT_TRUE(f.library.RunAll(f.dirty).ok());

  AugmentOptions augment;
  augment.gae.epochs = 25;
  augment.seed = seed ^ 0xCD;
  auto features = GAugment(f.dirty, f.constraints, augment);
  EXPECT_TRUE(features.ok());
  f.features = std::move(features).value();
  return f;
}

GaleConfig FastConfig(uint64_t seed) {
  GaleConfig config;
  config.sgan.hidden_dim = 32;
  config.sgan.embedding_dim = 16;
  config.sgan.train_epochs = 60;
  config.sgan.update_epochs = 8;
  config.local_budget = 8;
  config.iterations = 4;
  config.seed = seed;
  return config;
}

TEST(GaleTest, RejectsBadInputs) {
  Fixture f = MakeFixture();
  Gale gale(&f.dirty, &f.library, &f.constraints, FastConfig(1));
  detect::GroundTruthOracle oracle(&f.truth);
  la::Matrix wrong(5, f.features.x_real.cols());
  EXPECT_FALSE(
      gale.Run(wrong, f.features.x_synthetic, oracle).ok());
  GaleRunInputs bad_inputs;
  bad_inputs.initial_labels = std::vector<int>(3, kUnlabeled);
  EXPECT_FALSE(gale.Run(f.features.x_real, f.features.x_synthetic, oracle,
                        bad_inputs)
                   .ok());
}

TEST(GaleTest, ColdStartRunsAndRespectsBudget) {
  Fixture f = MakeFixture();
  GaleConfig config = FastConfig(2);
  Gale gale(&f.dirty, &f.library, &f.constraints, config);
  detect::GroundTruthOracle oracle(&f.truth);
  auto result =
      gale.Run(f.features.x_real, f.features.x_synthetic, oracle);
  ASSERT_TRUE(result.ok());
  const GaleResult& r = result.value();

  EXPECT_EQ(r.iterations().size(), static_cast<size_t>(config.iterations));
  EXPECT_EQ(oracle.num_queries(),
            config.local_budget * static_cast<size_t>(config.iterations))
      << "total budget is T * k";
  EXPECT_EQ(r.predicted.size(), f.dirty.num_nodes());
  EXPECT_EQ(r.probabilities.rows(), f.dirty.num_nodes());

  // Labeled examples override predictions.
  for (size_t v = 0; v < r.example_labels.size(); ++v) {
    if (r.example_labels[v] == kLabelError ||
        r.example_labels[v] == kLabelCorrect) {
      EXPECT_EQ(r.predicted[v], r.example_labels[v]);
    }
  }
}

TEST(GaleTest, OracleLabelsMatchGroundTruthInExamples) {
  Fixture f = MakeFixture();
  Gale gale(&f.dirty, &f.library, &f.constraints, FastConfig(3));
  detect::GroundTruthOracle oracle(&f.truth);
  auto result =
      gale.Run(f.features.x_real, f.features.x_synthetic, oracle);
  ASSERT_TRUE(result.ok());
  for (size_t v = 0; v < result.value().example_labels.size(); ++v) {
    const int label = result.value().example_labels[v];
    if (label == kLabelError) {
      EXPECT_TRUE(f.truth.is_error[v]);
    }
    if (label == kLabelCorrect) {
      EXPECT_FALSE(f.truth.is_error[v]);
    }
  }
}

TEST(GaleTest, ExcludedNodesAreNeverQueried) {
  Fixture f = MakeFixture();
  Gale gale(&f.dirty, &f.library, &f.constraints, FastConfig(5));
  detect::GroundTruthOracle oracle(&f.truth);
  // Exclude the last 200 nodes (a test fold).
  std::vector<int> initial(f.dirty.num_nodes(), kUnlabeled);
  for (size_t v = f.dirty.num_nodes() - 200; v < f.dirty.num_nodes(); ++v) {
    initial[v] = -2;
  }
  GaleRunInputs inputs;
  inputs.initial_labels = initial;
  auto result = gale.Run(f.features.x_real, f.features.x_synthetic, oracle,
                         inputs);
  ASSERT_TRUE(result.ok());
  for (size_t v = f.dirty.num_nodes() - 200; v < f.dirty.num_nodes(); ++v) {
    const int label = result.value().example_labels[v];
    EXPECT_TRUE(label != kLabelError && label != kLabelCorrect)
        << "excluded node " << v << " was queried";
    // Predictions on excluded nodes still exist.
    EXPECT_TRUE(result.value().predicted[v] == kLabelError ||
                result.value().predicted[v] == kLabelCorrect);
  }
}

TEST(GaleTest, AnnotationsProducedWhenEnabled) {
  Fixture f = MakeFixture();
  GaleConfig config = FastConfig(7);
  config.annotate_queries = true;
  Gale gale(&f.dirty, &f.library, &f.constraints, config);
  detect::GroundTruthOracle oracle(&f.truth);
  auto result =
      gale.Run(f.features.x_real, f.features.x_synthetic, oracle);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().last_annotations.size(), config.local_budget);
}

TEST(GaleTest, ActiveLearningBeatsWorstCase) {
  // The classifier after T rounds must be meaningfully better than random
  // guessing on the error class: F1 of random = ~2 * rate / (1 + rate).
  Fixture f = MakeFixture(11);
  GaleConfig config = FastConfig(11);
  config.iterations = 5;
  config.local_budget = 12;
  Gale gale(&f.dirty, &f.library, &f.constraints, config);
  detect::GroundTruthOracle oracle(&f.truth);
  auto result =
      gale.Run(f.features.x_real, f.features.x_synthetic, oracle);
  ASSERT_TRUE(result.ok());
  std::vector<uint8_t> flags(f.dirty.num_nodes(), 0);
  for (size_t v = 0; v < flags.size(); ++v) {
    flags[v] = result.value().predicted[v] == kLabelError ? 1 : 0;
  }
  const eval::Metrics m = eval::ComputeMetrics(flags, f.truth.is_error);
  EXPECT_GT(m.f1, 0.30) << m.ToString();
  EXPECT_GT(m.precision, 0.5) << m.ToString();
}

TEST(GaleTest, WarmStartWithInitialExamplesHelps) {
  Fixture f = MakeFixture(13);
  detect::GroundTruthOracle oracle_cold(&f.truth);
  detect::GroundTruthOracle oracle_warm(&f.truth);

  GaleConfig config = FastConfig(13);
  Gale cold(&f.dirty, &f.library, &f.constraints, config);
  auto cold_result =
      cold.Run(f.features.x_real, f.features.x_synthetic, oracle_cold);
  ASSERT_TRUE(cold_result.ok());

  // Warm start: hand over 30 ground-truth examples.
  std::vector<int> initial(f.dirty.num_nodes(), kUnlabeled);
  size_t errors = 0;
  size_t corrects = 0;
  for (size_t v = 0; v < f.dirty.num_nodes(); ++v) {
    if (f.truth.is_error[v] && errors < 15) {
      initial[v] = kLabelError;
      ++errors;
    } else if (!f.truth.is_error[v] && corrects < 15) {
      initial[v] = kLabelCorrect;
      ++corrects;
    }
  }
  Gale warm(&f.dirty, &f.library, &f.constraints, config);
  GaleRunInputs warm_inputs;
  warm_inputs.initial_labels = initial;
  auto warm_result = warm.Run(f.features.x_real, f.features.x_synthetic,
                              oracle_warm, warm_inputs);
  ASSERT_TRUE(warm_result.ok());

  auto f1_of = [&](const GaleResult& r) {
    std::vector<uint8_t> flags(f.dirty.num_nodes(), 0);
    for (size_t v = 0; v < flags.size(); ++v) {
      flags[v] = r.predicted[v] == kLabelError ? 1 : 0;
    }
    return eval::ComputeMetrics(flags, f.truth.is_error).f1;
  };
  // Warm start should not be (much) worse — allow noise slack.
  EXPECT_GE(f1_of(warm_result.value()) + 0.12, f1_of(cold_result.value()));
}

TEST(GaleTest, TelemetryIsPopulated) {
  Fixture f = MakeFixture();
  Gale gale(&f.dirty, &f.library, &f.constraints, FastConfig(17));
  detect::GroundTruthOracle oracle(&f.truth);
  auto result =
      gale.Run(f.features.x_real, f.features.x_synthetic, oracle);
  ASSERT_TRUE(result.ok());
  const GaleResult& r = result.value();
  EXPECT_GT(r.total_seconds(), 0.0);
  size_t cumulative = 0;
  for (const GaleIterationStats& it : r.iterations()) {
    EXPECT_GE(it.seconds, 0.0);
    EXPECT_GE(it.seconds + 1e-9, it.select_seconds + it.train_seconds)
        << "nested spans cannot outlast their parent";
    EXPECT_GT(it.new_examples, 0u);
    EXPECT_GT(it.cumulative_queries, cumulative);
    cumulative = it.cumulative_queries;
  }
  const SelectorTelemetry telemetry = r.selector_telemetry();
  EXPECT_GT(telemetry.ppr_rows_computed, 0u);
  // The run's spans are all in the report, properly parented.
  EXPECT_GT(r.report.spans.size(), 0u);
  size_t run_spans = 0;
  size_t iteration_spans = 0;
  for (const obs::SpanRecord& span : r.report.spans) {
    run_spans += span.name == "gale.core.run";
    iteration_spans += span.name == "gale.core.iteration";
  }
  EXPECT_EQ(run_spans, 1u);
  EXPECT_EQ(iteration_spans, r.iterations().size());
}

// Records the order in which Gale::Run queries nodes.
class RecordingOracle : public detect::GroundTruthOracle {
 public:
  using detect::GroundTruthOracle::GroundTruthOracle;
  const std::vector<size_t>& queried() const { return queried_; }

 protected:
  detect::NodeLabel LabelImpl(size_t v) override {
    queried_.push_back(v);
    return detect::GroundTruthOracle::LabelImpl(v);
  }

 private:
  std::vector<size_t> queried_;
};

TEST(GaleTest, GoldenQueries) {
  // Pins the whole selection path across commits: every iteration's query
  // list (in oracle order, with the per-iteration sizes), the final
  // probabilities and the last round's annotations of a memoized kGale run
  // must keep their bits at 1 and 4 threads. A change that only removes
  // unused work must not move any hash; one that is meant to must
  // re-record them and say why.
  Fixture f = MakeFixture();
  for (int threads : {1, 4}) {
    util::ScopedParallelism parallelism(threads);
    GaleConfig config = FastConfig(19);
    config.selector.strategy = QueryStrategy::kGale;
    config.selector.memoization = true;
    config.annotate_queries = true;
    Gale gale(&f.dirty, &f.library, &f.constraints, config);
    RecordingOracle oracle(&f.truth);
    auto result =
        gale.Run(f.features.x_real, f.features.x_synthetic, oracle);
    ASSERT_TRUE(result.ok());
    const GaleResult& r = result.value();

    std::string query_bytes;
    for (const GaleIterationStats& it : r.iterations()) {
      const uint64_t size = it.new_examples;
      query_bytes.append(reinterpret_cast<const char*>(&size), sizeof(size));
    }
    for (size_t v : oracle.queried()) {
      const uint64_t node = v;
      query_bytes.append(reinterpret_cast<const char*>(&node), sizeof(node));
    }
    const std::string prob_bytes(
        reinterpret_cast<const char*>(r.probabilities.data().data()),
        r.probabilities.size() * sizeof(double));
    // The soft subgraph (node, influence bytes, soft label L_s) of each
    // annotation, then its rendered text.
    std::string annotation_bytes;
    for (const Annotation& a : r.last_annotations) {
      const uint64_t node = a.node;
      annotation_bytes.append(reinterpret_cast<const char*>(&node),
                              sizeof(node));
      for (const SoftSubgraphEntry& e : a.soft_subgraph) {
        const uint64_t member = e.node;
        const int64_t soft_label = e.soft_label;
        annotation_bytes.append(reinterpret_cast<const char*>(&member),
                                sizeof(member));
        annotation_bytes.append(reinterpret_cast<const char*>(&e.influence),
                                sizeof(e.influence));
        annotation_bytes.append(reinterpret_cast<const char*>(&soft_label),
                                sizeof(soft_label));
      }
      annotation_bytes += a.DebugString(f.dirty);
    }
    const uint64_t queries_hash = util::Fnv1aHash(query_bytes);
    const uint64_t probs_hash = util::Fnv1aHash(prob_bytes);
    const uint64_t annotations_hash = util::Fnv1aHash(annotation_bytes);
    ASSERT_EQ(r.last_annotations.size(), config.local_budget);
    EXPECT_EQ(queries_hash, 0xd1edd5a66582e11eULL)
        << std::hex << threads << " threads: queries hash 0x" << queries_hash;
    EXPECT_EQ(probs_hash, 0xac8d674d30088436ULL)
        << std::hex << threads << " threads: probabilities hash 0x"
        << probs_hash;
    EXPECT_EQ(annotations_hash, 0x4a115b3543fccc14ULL)
        << std::hex << threads << " threads: annotations hash 0x"
        << annotations_hash;
  }
}

TEST(GaleTest, GoldenWarmStartQueries) {
  // A warm start has examples at iteration 0, so this pins that the first
  // round makes no η-sampling draws: one extra Bernoulli draw there would
  // shift every later round's V_T sample and move the queries.
  Fixture f = MakeFixture();
  GaleRunInputs inputs;
  inputs.initial_labels.assign(f.dirty.num_nodes(), kUnlabeled);
  for (size_t v = 0; v < f.dirty.num_nodes(); v += 35) {
    inputs.initial_labels[v] =
        f.truth.is_error[v] ? kLabelError : kLabelCorrect;
  }
  for (int threads : {1, 4}) {
    util::ScopedParallelism parallelism(threads);
    Gale gale(&f.dirty, &f.library, &f.constraints, FastConfig(29));
    RecordingOracle oracle(&f.truth);
    auto result = gale.Run(f.features.x_real, f.features.x_synthetic, oracle,
                           inputs);
    ASSERT_TRUE(result.ok());
    std::string query_bytes;
    for (size_t v : oracle.queried()) {
      const uint64_t node = v;
      query_bytes.append(reinterpret_cast<const char*>(&node), sizeof(node));
    }
    const uint64_t queries_hash = util::Fnv1aHash(query_bytes);
    EXPECT_EQ(queries_hash, 0x91aecda1b8fe0756ULL)
        << std::hex << threads << " threads: queries hash 0x" << queries_hash;
  }
}

TEST(GaleTest, AllLabeledColdStartIsFailedPrecondition) {
  // Iteration 0 has nothing to query when every node is already labeled:
  // Run reports it as an error (later rounds stop quietly instead), and
  // the oracle is never asked.
  Fixture f = MakeFixture();
  Gale gale(&f.dirty, &f.library, &f.constraints, FastConfig(23));
  RecordingOracle oracle(&f.truth);
  GaleRunInputs inputs;
  inputs.initial_labels.resize(f.dirty.num_nodes());
  for (size_t v = 0; v < f.dirty.num_nodes(); ++v) {
    inputs.initial_labels[v] =
        f.truth.is_error[v] ? kLabelError : kLabelCorrect;
  }
  auto result = gale.Run(f.features.x_real, f.features.x_synthetic, oracle,
                         inputs);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(oracle.num_queries(), 0u);
  EXPECT_TRUE(oracle.queried().empty());
}

}  // namespace
}  // namespace gale::core
