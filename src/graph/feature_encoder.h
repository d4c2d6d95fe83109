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
//
// Each node's values are tokenized and hashed once into an encode plan
// (EncoderStats); rows are replayed from the plans. A caller that keeps
// an EncoderStats current (the versioned store) re-encodes a changed
// graph by replanning only the nodes whose values changed.

#ifndef GALE_GRAPH_FEATURE_ENCODER_H_
#define GALE_GRAPH_FEATURE_ENCODER_H_

#include <cstddef>
#include <cstdint>
#include <string>
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

// Occurrence counts of string keys, in an open-addressing table with
// linear probing. The table owns a copy of each key's bytes, so a count
// outlives the string it was taken from. Each key has a handle that stays
// fixed while its count is positive: a caller that keeps the handle reads
// and drops the count without hashing or comparing the key again. The
// caller supplies each key's 64-bit hash, so a hash computed for another
// purpose is reused as the table hash.
class StringCountTable {
 public:
  using Handle = uint32_t;
  static constexpr Handle kNone = UINT32_MAX;

  // Adds one occurrence of `key`; returns its handle.
  Handle Add(std::string_view key, uint64_t hash);
  // Drops one occurrence of the key behind `handle`. At count 0 the key
  // leaves the table and its handle may name a later key.
  void Remove(Handle handle);
  // Handle of `key`, or kNone when its count is 0.
  Handle Find(std::string_view key, uint64_t hash) const;
  // Occurrences behind `handle`; 0 for kNone.
  size_t count(Handle handle) const {
    return handle == kNone ? 0 : keys_[handle].count;
  }
  // Number of keys with a positive count.
  size_t size() const { return size_; }

 private:
  struct Key {
    uint64_t hash = 0;
    uint32_t offset = 0;  // the key's bytes in bytes_
    uint32_t len = 0;
    size_t count = 0;  // 0 marks a free handle
  };
  struct Bucket {
    uint64_t hash = 0;
    Handle handle = kNone;  // kNone marks an empty bucket
  };
  size_t Home(uint64_t hash) const;
  std::string_view KeyBytes(const Key& key) const {
    return std::string_view(bytes_).substr(key.offset, key.len);
  }
  void Grow();
  void CompactBytes();

  std::vector<Key> keys_;        // by handle
  std::vector<Handle> free_;     // handles of count-0 keys
  std::vector<Bucket> buckets_;  // power-of-two size, or empty
  std::string bytes_;            // the bytes of every key, dead ones too
  size_t dead_bytes_ = 0;        // bytes of keys that left the table
  size_t size_ = 0;
};

// The encoder state: per-slot statistics, one slot per (node type,
// attribute), and one encode plan per node.
//
// A slot holds the numeric moments (NumericMoments, the definition
// AttributeStats uses), the counts of its text values and tokens, and its
// attribute name's FNV-1a hash prefixes (see EncodeNode). Its text is
// key-like when more than 80% of its non-null text values are distinct
// (names, ids): token rarity carries no signal there.
//
// A node's plan is what its values contribute to its row, tokenized and
// hashed once: per attribute the value's kind, a numeric value, or a text
// value's token weight and, per token, the FNV-1a hash of "name=token"
// (bucket and sign) and its handle in the slot's token counts. Rows are
// built by replaying plans against the current statistics, so a state
// kept up to date with Replan re-encodes a graph without touching a
// string. The tables own their keys: the state stays valid after the
// graph frees a value it counted.
class EncoderStats {
 public:
  // Plans every node of `g`, starting from an empty state.
  explicit EncoderStats(const AttributedGraph& g);
  ~EncoderStats();

  // Brings the state up to date with `g` after the values of `nodes`
  // changed: each node's old plan leaves the counts and a plan of its
  // current values enters them, then the numeric moments of the slots
  // they touch are recomputed. `nodes` must be distinct and hold every
  // node appended to `g` since the state last saw it; `g` must keep the
  // schema the state was built from. Topology changes need no replan:
  // the degree channel is read from `g` at encode time.
  void Replan(const AttributedGraph& g, const std::vector<size_t>& nodes);

 private:
  friend class FeatureEncoder;

  struct Slot {
    StringCountTable tokens;    // keyed by the token's bucket hash
    StringCountTable values;    // keyed by Fnv1aHash(value)
    size_t text_count = 0;      // non-null text values
    uint64_t token_prefix = 0;  // FNV-1a state after "name="
    uint64_t null_hash = 0;     // FNV-1a of "name=<null>"
    uint64_t z_hash = 0;        // FNV-1a of "name#z"
    uint64_t abs_hash = 0;      // FNV-1a of "name#abs"

    bool key_like() const {
      return text_count > 0 && static_cast<double>(values.size()) >
                                   0.8 * static_cast<double>(text_count);
    }
  };
  struct TokenPlan {
    uint64_t hash = 0;  // FNV-1a of "name=token"
    StringCountTable::Handle handle = StringCountTable::kNone;
  };
  struct AttrPlan {
    ValueKind kind = ValueKind::kNull;
    StringCountTable::Handle value = StringCountTable::kNone;  // text
    uint32_t num_tokens = 0;                                   // text
    size_t first_token = 0;  // text: index of the first TokenPlan
    double x = 0.0;  // numeric: the value; text: each token's weight
  };

  // Appends the plan of node `v` of `g` to `attrs` and `tokens`; `slots`
  // are the slots of v's type. With `SlotT` = Slot the node's values and
  // tokens are added to the slot counts and the handles are theirs; with
  // const Slot the counts are only looked up (a token never counted gets
  // kNone, which reads as count 0).
  template <typename SlotT>
  static void BuildPlan(const AttributedGraph& g, size_t v, SlotT* slots,
                        std::vector<AttrPlan>* attrs,
                        std::vector<TokenPlan>* tokens);

  // Number of planned nodes.
  size_t num_nodes() const { return attr_begin_.size() - 1; }
  // Recomputes the numeric moments of the slots i with `slots[i]` set.
  void RefreshNumeric(const AttributedGraph& g,
                      const std::vector<uint8_t>& slots);

  std::vector<size_t> offsets_;  // AttributeSlotOffsets of the graph
  std::vector<Slot> slots_;
  std::vector<NumericStats> numeric_;  // per slot
  // Node v's plan: attrs_[attr_begin_[v], attr_begin_[v + 1]), whose text
  // attributes point into tokens_. A replan appends its tokens and leaves
  // the old ones dead until a compaction.
  std::vector<size_t> attr_begin_{0};
  std::vector<AttrPlan> attrs_;
  std::vector<TokenPlan> tokens_;
  size_t dead_tokens_ = 0;
};

class FeatureEncoder {
 public:
  explicit FeatureEncoder(FeatureEncoderOptions options = {})
      : options_(options) {}

  // Encodes all nodes of `g` into an n x d matrix: plans every node into
  // a fresh EncoderStats, then replays the plans. Requires a finalized
  // graph when include_degree is set.
  util::Result<la::Matrix> Encode(const AttributedGraph& g) const;

  // Encodes all nodes of `g` by replaying the plans of `stats`, which
  // must be up to date with `g` (built from it, then replanned after
  // every value change). Same bits as Encode(g).
  util::Result<la::Matrix> Encode(const AttributedGraph& g,
                                  const EncoderStats& stats) const;

  // Encodes node `v` of `g` into a feature row of the same layout: plans
  // its current values against `stats` without counting them, then
  // replays that plan. `stats` may come from another graph with the same
  // schema (GAugment encodes a polluted clone against the clean graph's
  // statistics): a token it never counted reads as count 0.
  void EncodeNode(const AttributedGraph& g, const EncoderStats& stats,
                  size_t v, double* row, size_t row_len) const;

  // Dimensionality of the raw (pre-PCA) encoding for graph `g`.
  size_t RawDims(const AttributedGraph& g) const;

  const FeatureEncoderOptions& options() const { return options_; }

 private:
  // Adds node v's row, from its plan, onto the zeroed `row` (`attrs` =
  // one AttrPlan per attribute, whose token indices point into `tokens`).
  void ReplayRow(const AttributedGraph& g, const EncoderStats& stats,
                 size_t v, const EncoderStats::AttrPlan* attrs,
                 const EncoderStats::TokenPlan* tokens, double* row,
                 size_t row_len) const;

  FeatureEncoderOptions options_;
};

}  // namespace gale::graph

#endif  // GALE_GRAPH_FEATURE_ENCODER_H_
