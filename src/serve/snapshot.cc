#include "serve/snapshot.h"

#include <cmath>
#include <cstring>
#include <memory>
#include <utility>

#include "nn/activations.h"
#include "nn/dense.h"
#include "prop/ppr.h"
#include "util/check.h"
#include "util/framed_file.h"

namespace gale::serve {
namespace {

// A snapshot is a one-record framed file (util/framed_file.h).
constexpr util::FileFormat kFileFormat{"GALESNAP",
                                       ScoringSnapshot::kFormatVersion};

using util::AppendBytes, util::AppendPod;

void AppendMatrix(std::string* out, const la::Matrix& m) {
  AppendPod<uint64_t>(out, m.rows());
  AppendPod<uint64_t>(out, m.cols());
  AppendBytes(out, m.RowPtr(0), m.rows() * m.cols() * sizeof(double));
}

// The payload cursor, plus the matrix block reader.
class PayloadReader : public util::ByteReader {
 public:
  using ByteReader::ByteReader;

  bool ReadMatrix(la::Matrix* m) {
    uint64_t rows = 0;
    uint64_t cols = 0;
    if (!ReadPod(&rows) || !ReadPod(&cols)) return false;
    if (rows == 0 || cols == 0) {
      *m = la::Matrix();
      return true;  // FinishBuild rejects empty shapes with a real message
    }
    if (rows > remaining() / sizeof(double) / cols) return false;
    *m = la::Matrix(rows, cols);
    return ReadBytes(m->RowPtr(0), rows * cols * sizeof(double));
  }
};

std::string SerializePayload(const core::DiscriminatorSnapshot& disc,
                             const la::Matrix& features,
                             const la::SparseMatrix& walk,
                             const std::vector<int>& labels,
                             const std::vector<double>& influence,
                             double ppr_alpha) {
  std::string out;
  AppendMatrix(&out, features);
  AppendPod<uint64_t>(&out, disc.weights.size());
  for (size_t i = 0; i < disc.weights.size(); ++i) {
    AppendMatrix(&out, disc.weights[i]);
    AppendMatrix(&out, disc.biases[i]);
  }
  AppendPod<double>(&out, disc.leaky_slope);
  AppendPod<double>(&out, ppr_alpha);
  AppendPod<uint64_t>(&out, labels.size());
  for (int l : labels) AppendPod<int32_t>(&out, static_cast<int32_t>(l));
  AppendPod<uint64_t>(&out, influence.size());
  AppendBytes(&out, influence.data(), influence.size() * sizeof(double));
  // Walk CSR: row end offsets, then packed columns and values. Rebuilt
  // through FromTriplets on load; the triplets arrive row-major sorted and
  // duplicate-free, so the rebuilt arrays are byte-identical.
  AppendPod<uint64_t>(&out, walk.rows());
  AppendPod<uint64_t>(&out, walk.cols());
  AppendPod<uint64_t>(&out, walk.nnz());
  for (size_t r = 0; r < walk.rows(); ++r) {
    AppendPod<uint64_t>(&out, walk.RowEnd(r));
  }
  for (size_t k = 0; k < walk.nnz(); ++k) {
    AppendPod<uint32_t>(&out, static_cast<uint32_t>(walk.ColIndex(k)));
  }
  for (size_t k = 0; k < walk.nnz(); ++k) {
    AppendPod<double>(&out, walk.Value(k));
  }
  return out;
}

util::Status Corrupt(const std::string& what) {
  return util::Status::DataLoss("ScoringSnapshot::Load: " + what);
}

}  // namespace

util::Result<ScoringSnapshot> ScoringSnapshot::FromResult(
    const core::Gale& gale, const core::GaleResult& result,
    const la::Matrix& x_real) {
  ScoringSnapshot snap;
  snap.discriminator_ = result.discriminator;
  snap.features_ = x_real;
  snap.walk_ = gale.walk_matrix();
  snap.example_labels_ = result.example_labels;
  snap.ppr_alpha_ = gale.config().selector.ppr_alpha;
  const util::Result<void> built = snap.FinishBuild(/*bake_influence=*/true);
  if (!built.ok()) return built.status();
  return snap;
}

util::Result<ScoringSnapshot> ScoringSnapshot::FromParts(
    core::DiscriminatorSnapshot discriminator, la::Matrix features,
    la::SparseMatrix walk, std::vector<int> example_labels,
    double ppr_alpha) {
  ScoringSnapshot snap;
  snap.discriminator_ = std::move(discriminator);
  snap.features_ = std::move(features);
  snap.walk_ = std::move(walk);
  snap.example_labels_ = std::move(example_labels);
  snap.ppr_alpha_ = ppr_alpha;
  const util::Result<void> built = snap.FinishBuild(/*bake_influence=*/true);
  if (!built.ok()) return built.status();
  return snap;
}

util::Result<ScoringSnapshot> ScoringSnapshot::FromPartsWithInfluence(
    core::DiscriminatorSnapshot discriminator, la::Matrix features,
    la::SparseMatrix walk, std::vector<int> example_labels,
    std::vector<double> error_influence, double ppr_alpha) {
  ScoringSnapshot snap;
  snap.discriminator_ = std::move(discriminator);
  snap.features_ = std::move(features);
  snap.walk_ = std::move(walk);
  snap.example_labels_ = std::move(example_labels);
  snap.error_influence_ = std::move(error_influence);
  snap.ppr_alpha_ = ppr_alpha;
  const util::Result<void> built = snap.FinishBuild(/*bake_influence=*/false);
  if (!built.ok()) return built.status();
  return snap;
}

util::Result<void> ScoringSnapshot::FinishBuild(bool bake_influence) {
  const size_t n = features_.rows();
  const size_t d = features_.cols();
  if (n == 0 || d == 0) {
    return util::Status::InvalidArgument(
        "ScoringSnapshot: empty feature matrix");
  }
  if (discriminator_.weights.empty() ||
      discriminator_.weights.size() != discriminator_.biases.size()) {
    return util::Status::InvalidArgument(
        "ScoringSnapshot: discriminator has no exported Dense layers");
  }
  size_t width = d;
  for (size_t i = 0; i < discriminator_.weights.size(); ++i) {
    const la::Matrix& w = discriminator_.weights[i];
    const la::Matrix& b = discriminator_.biases[i];
    if (w.rows() != width || b.rows() != 1 || b.cols() != w.cols()) {
      return util::Status::InvalidArgument(
          "ScoringSnapshot: discriminator layer shapes do not chain");
    }
    width = w.cols();
  }
  if (width < 2) {
    return util::Status::InvalidArgument(
        "ScoringSnapshot: discriminator must emit >= 2 logits");
  }
  if (walk_.rows() != n || walk_.cols() != n) {
    return util::Status::InvalidArgument(
        "ScoringSnapshot: walk matrix shape != n x n");
  }
  if (example_labels_.size() != n) {
    return util::Status::InvalidArgument(
        "ScoringSnapshot: example_labels size != n");
  }
  if (ppr_alpha_ <= 0.0 || ppr_alpha_ >= 1.0) {
    return util::Status::InvalidArgument(
        "ScoringSnapshot: ppr_alpha must be in (0, 1)");
  }
  // nn::LeakyRelu takes only a finite slope > 0 (its Backward reads its
  // output).
  if (!(discriminator_.leaky_slope > 0.0 &&
        std::isfinite(discriminator_.leaky_slope))) {
    return util::Status::InvalidArgument(
        "ScoringSnapshot: leaky_slope must be finite and > 0");
  }
  if (!bake_influence) {
    if (error_influence_.size() != n) {
      return util::Status::InvalidArgument(
          "ScoringSnapshot: error_influence size != n");
    }
    return {};
  }

  prop::PprEngine engine(&walk_, prop::PprOptions{.alpha = ppr_alpha_});
  error_influence_ = BakeErrorInfluence(engine, example_labels_);
  return {};
}

std::vector<double> BakeErrorInfluence(prop::PprEngine& engine,
                                       const std::vector<int>& labels) {
  std::vector<size_t> error_seeds;
  for (size_t v = 0; v < labels.size(); ++v) {
    if (labels[v] == core::kLabelError) error_seeds.push_back(v);
  }
  engine.ComputeRows(error_seeds);
  std::vector<double> influence(labels.size(), 0.0);
  for (size_t u : error_seeds) {
    const std::vector<double>& row = engine.Row(u);
    for (size_t v = 0; v < influence.size(); ++v) influence[v] += row[v];
  }
  return influence;
}

util::Status ScoringSnapshot::Save(const std::string& path) const {
  std::string file = util::FramedFileHeader(kFileFormat);
  util::AppendRecord(&file,
                     SerializePayload(discriminator_, features_, walk_,
                                      example_labels_, error_influence_,
                                      ppr_alpha_));
  return util::WriteFileAtomically(path, file, "ScoringSnapshot::Save");
}

util::Result<ScoringSnapshot> ScoringSnapshot::Load(const std::string& path) {
  const util::Result<util::FramedFile> file =
      util::FramedFile::Read(path, kFileFormat, "ScoringSnapshot::Load");
  if (!file.ok()) return file.status();
  if (file.value().num_records() != 1) {
    return Corrupt("expected one record, found " +
                   std::to_string(file.value().num_records()));
  }

  PayloadReader reader(file.value().record(0));
  ScoringSnapshot snap;
  if (!reader.ReadMatrix(&snap.features_)) return Corrupt("features block");

  uint64_t num_layers = 0;
  if (!reader.ReadPod(&num_layers) || num_layers > 64) {
    return Corrupt("layer count");
  }
  snap.discriminator_.weights.resize(num_layers);
  snap.discriminator_.biases.resize(num_layers);
  for (uint64_t i = 0; i < num_layers; ++i) {
    if (!reader.ReadMatrix(&snap.discriminator_.weights[i]) ||
        !reader.ReadMatrix(&snap.discriminator_.biases[i])) {
      return Corrupt("discriminator layer block");
    }
  }
  if (!reader.ReadPod(&snap.discriminator_.leaky_slope) ||
      !reader.ReadPod(&snap.ppr_alpha_)) {
    return Corrupt("scalar block");
  }

  uint64_t num_labels = 0;
  if (!reader.ReadPod(&num_labels) ||
      !reader.CanHold(num_labels, sizeof(int32_t))) {
    return Corrupt("label count");
  }
  snap.example_labels_.resize(num_labels);
  for (uint64_t v = 0; v < num_labels; ++v) {
    int32_t label = 0;
    if (!reader.ReadPod(&label)) return Corrupt("label block");
    snap.example_labels_[v] = label;
  }

  uint64_t influence_size = 0;
  if (!reader.ReadPod(&influence_size) ||
      !reader.CanHold(influence_size, sizeof(double))) {
    return Corrupt("influence count");
  }
  snap.error_influence_.resize(influence_size);
  if (!reader.ReadBytes(snap.error_influence_.data(),
                        influence_size * sizeof(double))) {
    return Corrupt("influence block");
  }

  uint64_t rows = 0;
  uint64_t cols = 0;
  uint64_t nnz = 0;
  if (!reader.ReadPod(&rows) || !reader.ReadPod(&cols) ||
      !reader.ReadPod(&nnz) || !reader.CanHold(rows, sizeof(uint64_t))) {
    return Corrupt("walk header");
  }
  std::vector<uint64_t> row_end(rows);
  for (uint64_t r = 0; r < rows; ++r) {
    if (!reader.ReadPod(&row_end[r])) return Corrupt("walk row offsets");
  }
  if ((rows == 0 && nnz != 0) || (rows != 0 && row_end[rows - 1] != nnz) ||
      !reader.CanHold(nnz, sizeof(uint32_t))) {
    return Corrupt("walk offsets inconsistent with nnz");
  }
  std::vector<uint32_t> col_idx(nnz);
  for (uint64_t k = 0; k < nnz; ++k) {
    if (!reader.ReadPod(&col_idx[k])) return Corrupt("walk columns");
  }
  std::vector<la::Triplet> triplets;
  triplets.reserve(nnz);
  {
    uint64_t k = 0;
    uint64_t prev_end = 0;
    for (uint64_t r = 0; r < rows; ++r) {
      if (row_end[r] < prev_end || row_end[r] > nnz) {
        return Corrupt("walk offsets not monotone");
      }
      for (; k < row_end[r]; ++k) {
        if (col_idx[k] >= cols) return Corrupt("walk column out of range");
        double value = 0.0;
        if (!reader.ReadPod(&value)) return Corrupt("walk values");
        triplets.push_back({static_cast<size_t>(r),
                            static_cast<size_t>(col_idx[k]), value});
      }
      prev_end = row_end[r];
    }
  }
  if (!reader.exhausted()) return Corrupt("trailing bytes after payload");
  snap.walk_ = la::SparseMatrix::FromTriplets(rows, cols, std::move(triplets));

  const util::Result<void> built = snap.FinishBuild(/*bake_influence=*/false);
  if (!built.ok()) {
    return Corrupt("payload fails validation: " + built.status().ToString());
  }
  return snap;
}

SnapshotScorer::SnapshotScorer(const ScoringSnapshot* snapshot,
                               size_t max_batch)
    : snapshot_(snapshot), max_batch_(max_batch) {
  GALE_CHECK(snapshot != nullptr);
  GALE_CHECK_GT(max_batch, 0u);
  const core::DiscriminatorSnapshot& disc = snapshot->discriminator();
  for (size_t i = 0; i < disc.weights.size(); ++i) {
    forward_.Add(std::make_unique<nn::Dense>(disc.weights[i], disc.biases[i]));
    if (i + 1 < disc.weights.size()) {
      forward_.Add(std::make_unique<nn::LeakyRelu>(disc.leaky_slope));
    }
  }
  // Warm every layer buffer at the maximum batch shape; smaller batches
  // then reshape within capacity and ScoreInto stays allocation-free.
  input_ = la::Matrix(max_batch_, snapshot->feature_dim());
  for (size_t r = 0; r < max_batch_; ++r) {
    std::memcpy(input_.RowPtr(r), snapshot->features().RowPtr(0),
                snapshot->feature_dim() * sizeof(double));
  }
  (void)forward_.Forward(input_, /*training=*/false);
}

void SnapshotScorer::ScoreInto(const std::vector<size_t>& nodes,
                               NodeScore* out) {
  if (nodes.empty()) return;
  GALE_CHECK_LE(nodes.size(), max_batch_);
  snapshot_->features().SelectRowsInto(nodes, &input_);
  const la::Matrix& logits = forward_.Forward(input_, /*training=*/false);
  const std::vector<double>& influence = snapshot_->error_influence();
  for (size_t i = 0; i < nodes.size(); ++i) {
    // Sgan::PredictProbabilities' renormalization of logits 0/1, so the
    // scores mirror the run bitwise.
    core::ErrorCorrectProbabilities(logits.RowPtr(i), &out[i].p_error,
                                    &out[i].p_correct);
    out[i].error_influence = influence[nodes[i]];
  }
}

}  // namespace gale::serve
