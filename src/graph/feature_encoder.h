// Feature engineering (Section VII "Feature Engineering"): maps each node's
// attribute tuple to a dense vector.
//
// The paper uses word embeddings of attribute tokens plus GAE structural
// embeddings, concatenated and PCA-reduced. We substitute deterministic
// *feature hashing* for the word embeddings (see DESIGN.md): each token of
// each attribute value is hashed — together with its attribute name — into
// a fixed number of signed buckets, so that value perturbations move the
// node's vector. Numeric attributes contribute their z-score through the
// same hashed buckets (plus an |z| channel so that outliers are visible
// regardless of sign). Node type one-hots and a normalized log-degree are
// appended.
//
// In addition, four *quality channels* summarize per-node value quality —
// max and mean numeric |z|, the rarity of the node's rarest text token,
// and the fraction of null attributes. A word-embedding encoder carries
// token frequency implicitly; hashing does not, so these channels restore
// the signal (outliers, junk strings, missing values) explicitly.
//
// Output layout (per node row):
//   [ type one-hot | log-degree | quality channels | hashed buckets ]
// optionally followed by PCA compression of the bucket block.

#ifndef GALE_GRAPH_FEATURE_ENCODER_H_
#define GALE_GRAPH_FEATURE_ENCODER_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "graph/attribute_stats.h"
#include "graph/attributed_graph.h"
#include "la/matrix.h"
#include "util/status.h"

namespace gale::graph {

struct FeatureEncoderOptions {
  // Hash-bucket count for the attribute-content block.
  size_t hash_dims = 64;
  // When > 0, the hashed block is PCA-compressed to this many dimensions
  // (type one-hot and degree channels are kept verbatim).
  size_t pca_dims = 0;
  bool include_type_onehot = true;
  bool include_degree = true;
  bool include_quality_channels = true;
};

// Number of quality channels when enabled.
inline constexpr size_t kNumQualityChannels = 4;

// Occurrence counts keyed by string_view, in an open-addressing table
// with linear probing. The caller supplies each key's 64-bit hash, so a
// hash computed for another purpose is reused as the table hash. Keys are
// views: the bytes they point to must outlive the table.
class StringCountTable {
 public:
  // Adds one occurrence of `key`.
  void Add(std::string_view key, uint64_t hash);
  // Occurrences of `key`; 0 when it was never added.
  size_t Count(std::string_view key, uint64_t hash) const;
  // Number of distinct keys.
  size_t size() const { return size_; }

 private:
  struct Entry {
    uint64_t hash = 0;
    const char* data = nullptr;
    size_t len = 0;
    size_t count = 0;  // 0 marks an empty entry
  };
  size_t Home(uint64_t hash) const;
  void Grow();

  std::vector<Entry> entries_;  // power-of-two size, or empty
  size_t size_ = 0;
};

// The per-slot statistics the encoder reads, one slot per (node type,
// attribute): the numeric moments (NumericSlotStats, the definition
// AttributeStats uses) and, for text values, whether the slot is key-like
// and the per-token counts. Built without copying a string: token keys
// are views into the graph, which must outlive the stats unmodified. Each
// slot also carries its attribute name's FNV-1a hash prefixes (see
// EncodeNode).
class EncoderStats {
 public:
  explicit EncoderStats(const AttributedGraph& g);

 private:
  friend class FeatureEncoder;

  struct Slot {
    NumericStats numeric;
    // More than 80% of the non-null text values are distinct (names,
    // ids): token rarity carries no signal there.
    bool key_like = false;
    StringCountTable tokens;    // keyed by the token's bucket hash
    uint64_t token_prefix = 0;  // FNV-1a state after "name="
    uint64_t null_hash = 0;     // FNV-1a of "name=<null>"
    uint64_t z_hash = 0;        // FNV-1a of "name#z"
    uint64_t abs_hash = 0;      // FNV-1a of "name#abs"
  };

  std::vector<size_t> offsets_;  // AttributeSlotOffsets of the graph
  std::vector<Slot> slots_;
};

class FeatureEncoder {
 public:
  explicit FeatureEncoder(FeatureEncoderOptions options = {})
      : options_(options) {}

  // Encodes all nodes of `g` into an n x d matrix. Requires a finalized
  // graph when include_degree is set.
  util::Result<la::Matrix> Encode(const AttributedGraph& g) const;

  // Encodes a single node into a feature row of the same layout, reusing
  // pre-computed stats (for incremental paths and tests). `stats` may come
  // from another graph with the same schema: a token it never counted
  // reads as count 0.
  void EncodeNode(const AttributedGraph& g, const EncoderStats& stats,
                  size_t v, double* row, size_t row_len) const;

  // Dimensionality of the raw (pre-PCA) encoding for graph `g`.
  size_t RawDims(const AttributedGraph& g) const;

  const FeatureEncoderOptions& options() const { return options_; }

 private:
  FeatureEncoderOptions options_;
};

}  // namespace gale::graph

#endif  // GALE_GRAPH_FEATURE_ENCODER_H_
