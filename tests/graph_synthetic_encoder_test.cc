// Tests for the synthetic dataset generator, attribute statistics, and the
// feature encoder.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "eval/datasets.h"
#include "graph/attribute_stats.h"
#include "graph/constraints.h"
#include "graph/feature_encoder.h"
#include "graph/synthetic_dataset.h"
#include "util/string_util.h"

namespace gale::graph {
namespace {

TEST(SyntheticDatasetTest, RejectsDegenerateConfigs) {
  SyntheticConfig config;
  config.num_nodes = 0;
  EXPECT_FALSE(GenerateSynthetic(config).ok());
  config = {};
  config.num_communities = 0;
  EXPECT_FALSE(GenerateSynthetic(config).ok());
  config = {};
  config.vocab_size = 0;
  EXPECT_FALSE(GenerateSynthetic(config).ok());
}

TEST(SyntheticDatasetTest, MatchesRequestedShape) {
  SyntheticConfig config;
  config.num_nodes = 500;
  config.num_edges = 700;
  config.num_node_types = 3;
  config.seed = 1;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  const AttributedGraph& g = ds.value().graph;
  EXPECT_EQ(g.num_nodes(), 500u);
  // A few self-loop draws get dropped; stay within 2%.
  EXPECT_GE(g.num_edges(), 686u);
  EXPECT_LE(g.num_edges(), 700u);
  EXPECT_EQ(g.num_node_types(), 3u);
  EXPECT_TRUE(g.finalized());
  EXPECT_EQ(ds.value().community.size(), 500u);
}

TEST(SyntheticDatasetTest, DeterministicUnderSeed) {
  SyntheticConfig config;
  config.num_nodes = 300;
  config.num_edges = 350;
  config.seed = 11;
  auto a = GenerateSynthetic(config);
  auto b = GenerateSynthetic(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().community, b.value().community);
  for (size_t v = 0; v < 300; ++v) {
    for (size_t attr = 0; attr < a.value().graph.num_attributes(v); ++attr) {
      EXPECT_EQ(a.value().graph.value(v, attr), b.value().graph.value(v, attr));
    }
  }
}

TEST(SyntheticDatasetTest, PlantedFdHolds) {
  SyntheticConfig config;
  config.num_nodes = 600;
  config.seed = 3;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  const AttributedGraph& g = ds.value().graph;
  // group -> label must hold exactly on the clean graph.
  std::map<std::string, std::string> mapping;
  for (size_t v = 0; v < g.num_nodes(); ++v) {
    auto group_idx = g.AttributeIndex(g.node_type(v), "group");
    auto label_idx = g.AttributeIndex(g.node_type(v), "label");
    ASSERT_TRUE(group_idx.ok());
    ASSERT_TRUE(label_idx.ok());
    const std::string& group = g.value(v, group_idx.value()).text;
    const std::string& label = g.value(v, label_idx.value()).text;
    auto [it, inserted] = mapping.emplace(group, label);
    EXPECT_EQ(it->second, label) << "FD group->label violated at " << v;
  }
}

TEST(SyntheticDatasetTest, IntraCommunityEdgesDominate) {
  SyntheticConfig config;
  config.num_nodes = 800;
  config.num_edges = 1200;
  config.intra_community_fraction = 0.85;
  config.seed = 5;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  size_t intra = 0;
  for (const auto& [u, v] : ds.value().graph.EdgePairs()) {
    intra += (ds.value().community[u] == ds.value().community[v]);
  }
  const double fraction = static_cast<double>(intra) /
                          static_cast<double>(ds.value().graph.num_edges());
  EXPECT_GT(fraction, 0.8);
}

TEST(SyntheticDatasetTest, MinerRediscoveresPlantedConstraints) {
  SyntheticConfig config;
  config.num_nodes = 1000;
  config.num_edges = 1400;
  config.seed = 7;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  ConstraintMiner miner({.min_support = 20, .min_confidence = 0.85});
  auto constraints = miner.Mine(ds.value().graph);
  ASSERT_TRUE(constraints.ok());
  bool has_fd = false;
  for (const Constraint& k : constraints.value()) {
    if (k.kind == ConstraintKind::kFunctionalDependency) has_fd = true;
  }
  EXPECT_TRUE(has_fd) << "planted group->label FD must be rediscovered";
  EXPECT_GE(constraints.value().size(), 3u);
}

TEST(AttributeStatsTest, NumericMoments) {
  AttributedGraph g;
  const size_t t = g.AddNodeType("t", {{"x", ValueKind::kNumeric}});
  g.AddEdgeType("e");
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    g.AddNode(t, {AttributeValue::Number(v)});
  }
  g.Finalize();
  AttributeStats stats(g);
  const NumericStats& s = stats.Numeric(0, 0);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
  EXPECT_NEAR(stats.ZScore(0, 0, 3.0 + std::sqrt(2.5)), 1.0, 1e-9);
}

TEST(AttributeStatsTest, TextFrequenciesAndNulls) {
  AttributedGraph g;
  const size_t t = g.AddNodeType("t", {{"s", ValueKind::kText}});
  g.AddEdgeType("e");
  g.AddNode(t, {AttributeValue::Text("a b")});
  g.AddNode(t, {AttributeValue::Text("a")});
  g.AddNode(t, {AttributeValue::Null()});
  g.Finalize();
  AttributeStats stats(g);
  const TextStats& s = stats.Text(0, 0);
  EXPECT_EQ(s.count, 2u);  // nulls not counted
  EXPECT_EQ(s.values.at("a b"), 1u);
  EXPECT_EQ(s.tokens.at("a"), 2u);
  EXPECT_EQ(s.tokens.at("b"), 1u);
}

TEST(FeatureEncoderTest, ShapeAndDeterminism) {
  SyntheticConfig config;
  config.num_nodes = 300;
  config.seed = 9;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  FeatureEncoder encoder({.hash_dims = 32});
  auto a = encoder.Encode(ds.value().graph);
  auto b = encoder.Encode(ds.value().graph);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().rows(), 300u);
  EXPECT_EQ(a.value().cols(), encoder.RawDims(ds.value().graph));
  EXPECT_TRUE(a.value().AllClose(b.value(), 0.0));
}

TEST(FeatureEncoderTest, ReplannedStatsEncodeLikeFreshStats) {
  // A state kept warm through rounds of value edits (text, numeric, null)
  // and node appends encodes the same bytes as a state planned from the
  // end graph, at a power-of-two and another bucket count. The rounds
  // retire enough tokens to compact the token plans.
  SyntheticConfig config;
  config.num_nodes = 200;
  config.seed = 4;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  AttributedGraph g = ds.value().graph.Clone();
  EncoderStats warm(g);
  for (size_t round = 0; round < 30; ++round) {
    std::vector<size_t> nodes;
    for (size_t i = 0; i < 12; ++i) {
      const size_t v = (round * 37 + i * 53) % g.num_nodes();
      if (std::find(nodes.begin(), nodes.end(), v) != nodes.end()) continue;
      nodes.push_back(v);
      for (size_t a = 0; a < g.num_attributes(v); ++a) {
        if ((round + i + a) % 5 == 0) {
          g.set_value(v, a, AttributeValue::Null());
        } else if (g.attribute_def(v, a).kind == ValueKind::kNumeric) {
          g.set_value(v, a,
                      AttributeValue::Number(static_cast<double>(round + a)));
        } else {
          std::string text = std::to_string(round % 4);
          text += "w r";
          text += std::to_string(round);
          g.set_value(v, a, AttributeValue::Text(text));
        }
      }
    }
    if (round % 10 == 9) {
      g.Unfreeze();
      std::vector<AttributeValue> values;
      for (const AttributeDef& def : g.node_type_def(0).attributes) {
        values.push_back(def.kind == ValueKind::kNumeric
                             ? AttributeValue::Number(1.0)
                             : AttributeValue::Text("appended"));
      }
      nodes.push_back(g.AddNode(0, values));
      g.AddEdge(nodes.back(), 0, 0);
      g.Finalize();
    }
    warm.Replan(g, nodes);
  }
  for (const size_t dims : {64u, 48u}) {
    const FeatureEncoder encoder({.hash_dims = dims});
    auto replayed = encoder.Encode(g, warm);
    auto fresh = encoder.Encode(g);
    ASSERT_TRUE(replayed.ok());
    ASSERT_TRUE(fresh.ok());
    ASSERT_EQ(replayed.value().size(), fresh.value().size());
    EXPECT_EQ(std::memcmp(replayed.value().data().data(),
                          fresh.value().data().data(),
                          fresh.value().size() * sizeof(double)),
              0)
        << "hash_dims " << dims;
  }
}

TEST(FeatureEncoderTest, TokenLandsInHashModDims) {
  // A token's bucket is FNV-1a("name=token") mod hash_dims, its sign bit
  // 61 of that hash, for power-of-two and other bucket counts alike.
  AttributedGraph g;
  g.AddNodeType("t", {{"name", ValueKind::kText}});
  g.AddNode(0, {AttributeValue::Text("tok")});
  g.Finalize();
  const uint64_t h = util::Fnv1aHash("name=tok");
  for (const size_t dims : {64u, 48u, 7u}) {
    const FeatureEncoder encoder({.hash_dims = dims,
                                  .include_type_onehot = false,
                                  .include_degree = false,
                                  .include_quality_channels = false});
    auto row = encoder.Encode(g);
    ASSERT_TRUE(row.ok());
    for (size_t b = 0; b < dims; ++b) {
      const double expected =
          b == h % dims ? (((h >> 61) & 1) ? 1.0 : -1.0) : 0.0;
      EXPECT_EQ(row.value().RowPtr(0)[b], expected) << dims << " " << b;
    }
  }
}

TEST(FeatureEncoderTest, PerturbationMovesTheVector) {
  SyntheticConfig config;
  config.num_nodes = 200;
  config.seed = 13;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  AttributedGraph g = ds.value().graph.Clone();
  FeatureEncoder encoder;
  auto before = encoder.Encode(g);
  ASSERT_TRUE(before.ok());

  auto group_idx = g.AttributeIndex(g.node_type(0), "group");
  ASSERT_TRUE(group_idx.ok());
  g.set_value(0, group_idx.value(), AttributeValue::Text("g_changed"));
  auto after = encoder.Encode(g);
  ASSERT_TRUE(after.ok());

  EXPECT_GT(before.value().RowDistanceSquared(0, after.value(), 0), 1e-6)
      << "changing a value must move the node's feature row";
  // The un-touched rows move at most through shared statistics: group is a
  // text attribute, so other rows are bit-identical.
  EXPECT_NEAR(before.value().RowDistanceSquared(1, after.value(), 1), 0.0,
              1e-18);
}

TEST(FeatureEncoderTest, OutlierShowsUpInMagnitude) {
  SyntheticConfig config;
  config.num_nodes = 400;
  config.seed = 15;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  AttributedGraph g = ds.value().graph.Clone();
  auto num_idx = g.AttributeIndex(g.node_type(0), "num0");
  ASSERT_TRUE(num_idx.ok());

  FeatureEncoder encoder;
  auto before = encoder.Encode(g);
  ASSERT_TRUE(before.ok());
  // Push the value 50 sigmas out.
  AttributeStats stats(g);
  const NumericStats& s = stats.Numeric(g.node_type(0), num_idx.value());
  g.set_value(0, num_idx.value(),
              AttributeValue::Number(s.mean + 50.0 * (s.stddev + 1e-9)));
  auto after = encoder.Encode(g);
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after.value().RowDistanceSquared(0, before.value(), 0), 100.0);
}

TEST(FeatureEncoderTest, PcaReducesWidth) {
  SyntheticConfig config;
  config.num_nodes = 300;
  config.seed = 17;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  FeatureEncoder encoder({.hash_dims = 48, .pca_dims = 8});
  auto features = encoder.Encode(ds.value().graph);
  ASSERT_TRUE(features.ok());
  const size_t kept = ds.value().graph.num_node_types() + 1 +
                      kNumQualityChannels;  // type, degree, quality
  EXPECT_EQ(features.value().cols(), kept + 8);
}

TEST(FeatureEncoderTest, RejectsZeroHashDims) {
  SyntheticConfig config;
  config.num_nodes = 50;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  FeatureEncoder encoder({.hash_dims = 0});
  EXPECT_FALSE(encoder.Encode(ds.value().graph).ok());
}

TEST(StringCountTableTest, CountsKeysThroughGrowthAndCollisions) {
  // Keys with equal hashes stay distinct, and counts and handles survive
  // the rehashes of many doublings.
  StringCountTable table;
  EXPECT_EQ(table.Find("a", 7), StringCountTable::kNone);
  EXPECT_EQ(table.count(StringCountTable::kNone), 0u);
  const StringCountTable::Handle a = table.Add("a", 7);
  const StringCountTable::Handle b = table.Add("b", 7);
  EXPECT_EQ(table.Add("a", 7), a);
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; ++i) keys.push_back(std::to_string(i));
  for (const std::string& k : keys) table.Add(k, util::Fnv1aHash(k));
  EXPECT_EQ(table.size(), 1002u);
  EXPECT_EQ(table.Find("a", 7), a);
  EXPECT_EQ(table.Find("b", 7), b);
  EXPECT_EQ(table.count(a), 2u);
  EXPECT_EQ(table.count(b), 1u);
  EXPECT_EQ(table.Find("c", 7), StringCountTable::kNone);
  EXPECT_EQ(table.Find("a", 8), StringCountTable::kNone);
  for (const std::string& k : keys) {
    EXPECT_EQ(table.count(table.Find(k, util::Fnv1aHash(k))), 1u) << k;
  }
}

TEST(StringCountTableTest, RemoveKeepsTheOtherKeysReachable) {
  // Removing keys from the middle of probe runs (equal hashes collide on
  // one run) must leave every other key findable with its handle; a key
  // at count 0 is gone, and its handle is reused.
  StringCountTable table;
  std::vector<std::string> keys;
  std::vector<StringCountTable::Handle> handles;
  for (int i = 0; i < 300; ++i) {
    keys.push_back(std::to_string(i) + "k");
    // Three hashes only: long collision runs.
    handles.push_back(table.Add(keys.back(), static_cast<uint64_t>(i % 3)));
  }
  for (int i = 0; i < 300; i += 2) table.Remove(handles[i]);
  EXPECT_EQ(table.size(), 150u);
  for (int i = 0; i < 300; ++i) {
    const StringCountTable::Handle found =
        table.Find(keys[i], static_cast<uint64_t>(i % 3));
    if (i % 2 == 0) {
      EXPECT_EQ(found, StringCountTable::kNone) << keys[i];
    } else {
      EXPECT_EQ(found, handles[i]) << keys[i];
      EXPECT_EQ(table.count(found), 1u);
    }
  }
  const StringCountTable::Handle reused = table.Add("fresh", 1);
  EXPECT_EQ(reused % 2, 0u);  // an even key's freed handle
  EXPECT_EQ(table.Find("fresh", 1), reused);
}

TEST(StringCountTableTest, KeysOutliveTheirSourceStrings) {
  // The table copies key bytes: counting from a string that is then
  // freed, and compacting the bytes of removed keys, keeps every key
  // comparable.
  StringCountTable table;
  std::vector<StringCountTable::Handle> handles;
  for (int i = 0; i < 2000; ++i) {
    const std::string key =
        std::to_string(i) + "-a-long-key-that-is-not-inlined";
    handles.push_back(table.Add(key, util::Fnv1aHash(key)));
  }
  for (int i = 0; i < 1900; ++i) table.Remove(handles[i]);
  for (int i = 0; i < 2000; ++i) {
    const std::string key =
        std::to_string(i) + "-a-long-key-that-is-not-inlined";
    EXPECT_EQ(table.Find(key, util::Fnv1aHash(key)),
              i < 1900 ? StringCountTable::kNone : handles[i])
        << key;
  }
}

// FNV-1a over the shape and raw bytes of `m`.
uint64_t MatrixDigest(const la::Matrix& m) {
  std::string bytes = std::to_string(m.rows()) + "x" + std::to_string(m.cols());
  bytes.append(reinterpret_cast<const char*>(m.data().data()),
               m.size() * sizeof(double));
  return util::Fnv1aHash(std::string_view(bytes));
}

TEST(FeatureEncoderTest, GoldenBits) {
  // Pins the encoder's output bits across commits, on the injected (dirty)
  // graphs of two bundled datasets: nulls, noise tokens and outliers
  // included. The last option set covers PCA, the first the defaults.
  // GAugment's synthetic rows are its polluted clone encoded against the
  // clean statistics, so their digest covers tokens the statistics never
  // saw. A change that is meant to move the features re-records these
  // constants from the failure messages and says why.
  const std::vector<std::pair<const char*, FeatureEncoderOptions>> options = {
      {"defaults", {}},
      {"hash_dims=32", {.hash_dims = 32}},
      {"no type one-hot", {.include_type_onehot = false}},
      {"no degree", {.include_degree = false}},
      {"no quality", {.include_quality_channels = false}},
      {"pca_dims=8", {.pca_dims = 8}},
  };
  const std::vector<std::pair<const char*, std::vector<uint64_t>>> golden = {
      {"SP",
       {0x57bfda554da633b2ULL, 0x08348cbdf9a3f77cULL, 0x324daee0d360a6b5ULL,
        0x519b081599094c3eULL, 0xd0273de2daacb691ULL, 0x70b5de8170f07c9fULL,
        0xe178d6f790a584ffULL}},
      {"DM",
       {0x4977b7e583a6b527ULL, 0xdb0124e64b45d25aULL, 0xf4bc4f674d4070b7ULL,
        0x1358c9744ec5ab97ULL, 0xcf76427216b2da0eULL, 0x07833adcc8cea8edULL,
        0x4e415bbea6e79b77ULL}},
  };
  for (const auto& [name, expected] : golden) {
    auto spec = eval::DatasetByName(name, 0.1);
    ASSERT_TRUE(spec.ok());
    auto ds = eval::PrepareDataset(spec.value(), 3);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    const AttributedGraph& g = ds.value()->dirty;
    for (size_t i = 0; i < options.size(); ++i) {
      auto features = FeatureEncoder(options[i].second).Encode(g);
      ASSERT_TRUE(features.ok());
      const uint64_t digest = MatrixDigest(features.value());
      EXPECT_EQ(digest, expected[i]) << name << " " << options[i].first
                                     << std::hex << ": 0x" << digest;
    }
    const uint64_t synthetic =
        MatrixDigest(ds.value()->features.x_synthetic);
    EXPECT_EQ(synthetic, expected[options.size()])
        << name << " x_synthetic" << std::hex << ": 0x" << synthetic;
  }
}

}  // namespace
}  // namespace gale::graph
