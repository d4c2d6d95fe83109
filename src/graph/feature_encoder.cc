#include "graph/feature_encoder.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string_view>

#include "la/pca.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace gale::graph {

namespace {

// Signed hashing of the FNV-1a hash `h` of "name=token" (or "name#z",
// ...): bucket = h mod D, sign from an independent bit of h.
inline void HashInto(uint64_t h, double weight, double* buckets,
                     size_t dims) {
  const size_t bucket = static_cast<size_t>(h % dims);
  const double sign = ((h >> 61) & 1) ? 1.0 : -1.0;
  buckets[bucket] += sign * weight;
}

}  // namespace

size_t StringCountTable::Home(uint64_t hash) const {
  // Fibonacci hashing: the product's top bits mix every bit of the hash.
  const int bits = std::countr_zero(entries_.size());
  return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ULL) >> (64 - bits));
}

void StringCountTable::Grow() {
  std::vector<Entry> old = std::move(entries_);
  entries_.assign(old.empty() ? 16 : 2 * old.size(), Entry{});
  const size_t mask = entries_.size() - 1;
  for (const Entry& e : old) {
    if (e.count == 0) continue;
    size_t i = Home(e.hash);
    while (entries_[i].count != 0) i = (i + 1) & mask;
    entries_[i] = e;
  }
}

void StringCountTable::Add(std::string_view key, uint64_t hash) {
  if (2 * (size_ + 1) > entries_.size()) Grow();
  const size_t mask = entries_.size() - 1;
  for (size_t i = Home(hash);; i = (i + 1) & mask) {
    Entry& e = entries_[i];
    if (e.count == 0) {
      e = {hash, key.data(), key.size(), 1};
      ++size_;
      return;
    }
    if (e.hash == hash && std::string_view(e.data, e.len) == key) {
      ++e.count;
      return;
    }
  }
}

size_t StringCountTable::Count(std::string_view key, uint64_t hash) const {
  if (entries_.empty()) return 0;
  const size_t mask = entries_.size() - 1;
  for (size_t i = Home(hash);; i = (i + 1) & mask) {
    const Entry& e = entries_[i];
    if (e.count == 0) return 0;
    if (e.hash == hash && std::string_view(e.data, e.len) == key) {
      return e.count;
    }
  }
}

EncoderStats::EncoderStats(const AttributedGraph& g)
    : offsets_(AttributeSlotOffsets(g)), slots_(offsets_.back()) {
  const std::vector<NumericStats> numeric = NumericSlotStats(g, offsets_);
  for (size_t t = 0; t < g.num_node_types(); ++t) {
    const auto& defs = g.node_type_def(t).attributes;
    for (size_t a = 0; a < defs.size(); ++a) {
      Slot& slot = slots_[offsets_[t] + a];
      slot.numeric = numeric[offsets_[t] + a];
      const uint64_t name = util::Fnv1aHash(defs[a].name);
      slot.token_prefix = util::Fnv1aExtend(name, "=");
      slot.null_hash = util::Fnv1aExtend(slot.token_prefix, "<null>");
      slot.z_hash = util::Fnv1aExtend(name, "#z");
      slot.abs_hash = util::Fnv1aExtend(name, "#abs");
    }
  }

  std::vector<size_t> text_count(slots_.size(), 0);
  std::vector<StringCountTable> values(slots_.size());
  for (size_t v = 0; v < g.num_nodes(); ++v) {
    const size_t first = offsets_[g.node_type(v)];
    for (size_t a = 0; a < g.num_attributes(v); ++a) {
      const AttributeValue& val = g.value(v, a);
      if (val.kind != ValueKind::kText) continue;
      Slot& slot = slots_[first + a];
      text_count[first + a] += 1;
      values[first + a].Add(val.text, util::Fnv1aHash(val.text));
      util::ForEachWhitespaceToken(val.text, [&](std::string_view tok) {
        slot.tokens.Add(tok, util::Fnv1aExtend(slot.token_prefix, tok));
      });
    }
  }
  for (size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].key_like = text_count[i] > 0 &&
                         static_cast<double>(values[i].size()) >
                             0.8 * static_cast<double>(text_count[i]);
  }
}

size_t FeatureEncoder::RawDims(const AttributedGraph& g) const {
  size_t d = options_.hash_dims;
  if (options_.include_type_onehot) d += g.num_node_types();
  if (options_.include_degree) d += 1;
  if (options_.include_quality_channels) d += kNumQualityChannels;
  return d;
}

void FeatureEncoder::EncodeNode(const AttributedGraph& g,
                                const EncoderStats& stats, size_t v,
                                double* row, size_t row_len) const {
  GALE_CHECK_EQ(row_len, RawDims(g));
  GALE_CHECK_EQ(stats.offsets_.size(), g.num_node_types() + 1);
  std::fill(row, row + row_len, 0.0);

  size_t offset = 0;
  if (options_.include_type_onehot) {
    row[g.node_type(v)] = 1.0;
    offset += g.num_node_types();
  }
  if (options_.include_degree) {
    row[offset] = std::log1p(static_cast<double>(g.degree(v)));
    offset += 1;
  }

  const size_t t = g.node_type(v);
  const size_t num_attrs = g.node_type_def(t).attributes.size();
  const EncoderStats::Slot* slots = stats.slots_.data() + stats.offsets_[t];
  GALE_CHECK_EQ(stats.offsets_[t + 1] - stats.offsets_[t], num_attrs);
  const bool quality = options_.include_quality_channels;
  double* buckets = row + offset + (quality ? kNumQualityChannels : 0);
  const size_t dims = options_.hash_dims;

  // One pass over the attributes feeds both blocks. The quality channels
  // are [max |z|, mean |z|, rarest-token rarity, null fraction]. Every
  // bucket receives its additions in attribute order, then token order.
  double max_z = 0.0;
  double sum_z = 0.0;
  size_t numeric_count = 0;
  double max_rarity = 0.0;
  size_t null_count = 0;
  for (size_t a = 0; a < num_attrs; ++a) {
    const EncoderStats::Slot& slot = slots[a];
    const AttributeValue& val = g.value(v, a);
    if (val.is_null()) {
      ++null_count;
      HashInto(slot.null_hash, 1.0, buckets, dims);
      continue;
    }
    if (val.kind == ValueKind::kNumeric) {
      const NumericStats& s = slot.numeric;
      if (quality) {
        const double z = AbsZScore(s, val.numeric);
        max_z = std::max(max_z, z);
        sum_z += z;
        ++numeric_count;
      }
      // z-score through a signed bucket, |z| through a second one: outlier
      // magnitude is visible regardless of the hashed sign.
      const double z = (val.numeric - s.mean) / std::max(s.stddev, 1e-9);
      HashInto(slot.z_hash, z, buckets, dims);
      HashInto(slot.abs_hash, std::abs(z), buckets, dims);
      continue;
    }
    size_t num_tokens = 0;
    util::ForEachWhitespaceToken(val.text,
                                 [&](std::string_view) { ++num_tokens; });
    const double w = 1.0 / std::sqrt(static_cast<double>(
                               std::max<size_t>(1, num_tokens)));
    const bool rarity = quality && !slot.key_like;
    util::ForEachWhitespaceToken(val.text, [&](std::string_view tok) {
      // The FNV-1a hash of "name=" + tok, from the slot's prefix state.
      const uint64_t h = util::Fnv1aExtend(slot.token_prefix, tok);
      HashInto(h, w, buckets, dims);
      if (rarity) {
        // Rarity ~ 1 for unseen/singleton tokens, ~ 0 for common ones.
        const size_t count = slot.tokens.Count(tok, h);
        max_rarity = std::max(
            max_rarity, 1.0 / std::log2(2.0 + static_cast<double>(count)));
      }
    });
  }
  if (quality) {
    row[offset + 0] = std::min(max_z, 12.0);
    row[offset + 1] =
        numeric_count > 0
            ? std::min(sum_z / static_cast<double>(numeric_count), 12.0)
            : 0.0;
    row[offset + 2] = max_rarity;
    row[offset + 3] = num_attrs == 0 ? 0.0
                                     : static_cast<double>(null_count) /
                                           static_cast<double>(num_attrs);
  }
}

util::Result<la::Matrix> FeatureEncoder::Encode(
    const AttributedGraph& g) const {
  if (options_.include_degree && !g.finalized()) {
    return util::Status::FailedPrecondition(
        "FeatureEncoder: degree channel needs a finalized graph");
  }
  if (options_.hash_dims == 0) {
    return util::Status::InvalidArgument("FeatureEncoder: hash_dims == 0");
  }
  const EncoderStats stats(g);
  const size_t raw = RawDims(g);
  la::Matrix features(g.num_nodes(), raw);
  for (size_t v = 0; v < g.num_nodes(); ++v) {
    EncodeNode(g, stats, v, features.RowPtr(v), raw);
  }

  if (options_.pca_dims == 0 || options_.pca_dims >= options_.hash_dims) {
    return features;
  }

  // PCA-compress only the hashed content block; keep the structural
  // channels (type, degree) verbatim.
  const size_t keep = raw - options_.hash_dims;
  la::Matrix hashed(g.num_nodes(), options_.hash_dims);
  for (size_t v = 0; v < g.num_nodes(); ++v) {
    std::copy(features.RowPtr(v) + keep, features.RowPtr(v) + raw,
              hashed.RowPtr(v));
  }
  la::Pca pca(options_.pca_dims);
  util::Result<la::Matrix> reduced = pca.FitTransform(hashed);
  if (!reduced.ok()) return reduced.status();

  la::Matrix out(g.num_nodes(), keep + options_.pca_dims);
  for (size_t v = 0; v < g.num_nodes(); ++v) {
    std::copy(features.RowPtr(v), features.RowPtr(v) + keep, out.RowPtr(v));
    std::copy(reduced.value().RowPtr(v),
              reduced.value().RowPtr(v) + options_.pca_dims,
              out.RowPtr(v) + keep);
  }
  return out;
}

}  // namespace gale::graph
