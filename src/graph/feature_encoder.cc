#include "graph/feature_encoder.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <type_traits>

#include "la/pca.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace gale::graph {

namespace {

// Signed hashing of the FNV-1a hash `h` of "name=token" (or "name#z",
// ...): bucket = h mod D, sign from an independent bit of h. `mask` is
// D - 1 when D is a power of two (h & mask == h mod D without a
// division), else 0.
inline void HashInto(uint64_t h, double weight, double* buckets,
                     size_t dims, size_t mask) {
  const size_t bucket = static_cast<size_t>(mask != 0 ? h & mask : h % dims);
  const double sign = ((h >> 61) & 1) ? 1.0 : -1.0;
  buckets[bucket] += sign * weight;
}

}  // namespace

size_t StringCountTable::Home(uint64_t hash) const {
  // Fibonacci hashing: the product's top bits mix every bit of the hash.
  const int bits = std::countr_zero(buckets_.size());
  return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ULL) >> (64 - bits));
}

void StringCountTable::Grow() {
  std::vector<Bucket> old = std::move(buckets_);
  buckets_.assign(old.empty() ? 16 : 2 * old.size(), Bucket{});
  const size_t mask = buckets_.size() - 1;
  for (const Bucket& b : old) {
    if (b.handle == kNone) continue;
    size_t i = Home(b.hash);
    while (buckets_[i].handle != kNone) i = (i + 1) & mask;
    buckets_[i] = b;
  }
}

StringCountTable::Handle StringCountTable::Add(std::string_view key,
                                               uint64_t hash) {
  if (2 * (size_ + 1) > buckets_.size()) Grow();
  const size_t mask = buckets_.size() - 1;
  for (size_t i = Home(hash);; i = (i + 1) & mask) {
    Bucket& b = buckets_[i];
    if (b.handle == kNone) {
      GALE_CHECK_LE(bytes_.size() + key.size(), size_t{UINT32_MAX});
      Handle handle;
      if (free_.empty()) {
        GALE_CHECK_LT(keys_.size(), size_t{kNone});
        handle = static_cast<Handle>(keys_.size());
        keys_.emplace_back();
      } else {
        handle = free_.back();
        free_.pop_back();
      }
      keys_[handle] = {hash, static_cast<uint32_t>(bytes_.size()),
                       static_cast<uint32_t>(key.size()), 1};
      bytes_.append(key);
      b = {hash, handle};
      ++size_;
      return handle;
    }
    if (b.hash == hash && KeyBytes(keys_[b.handle]) == key) {
      ++keys_[b.handle].count;
      return b.handle;
    }
  }
}

void StringCountTable::Remove(Handle handle) {
  Key& key = keys_[handle];
  GALE_CHECK_GT(key.count, 0u);
  if (--key.count > 0) return;
  // Backward-shift deletion: every later bucket of the probe run whose
  // home is not in (hole, j] moves into the hole, so each remaining key
  // stays reachable from its home without tombstones.
  const size_t mask = buckets_.size() - 1;
  size_t hole = Home(key.hash);
  while (buckets_[hole].handle != handle) hole = (hole + 1) & mask;
  for (size_t j = (hole + 1) & mask; buckets_[j].handle != kNone;
       j = (j + 1) & mask) {
    const size_t home = Home(buckets_[j].hash);
    const bool stays = hole <= j ? (hole < home && home <= j)
                                 : (hole < home || home <= j);
    if (stays) continue;
    buckets_[hole] = buckets_[j];
    hole = j;
  }
  buckets_[hole] = Bucket{};
  --size_;
  free_.push_back(handle);
  dead_bytes_ += key.len;
  if (dead_bytes_ > 4096 && 2 * dead_bytes_ > bytes_.size()) CompactBytes();
}

void StringCountTable::CompactBytes() {
  std::string live;
  live.reserve(bytes_.size() - dead_bytes_);
  for (Key& key : keys_) {
    if (key.count == 0) continue;
    const std::string_view bytes = KeyBytes(key);
    key.offset = static_cast<uint32_t>(live.size());
    live.append(bytes);
  }
  bytes_ = std::move(live);
  dead_bytes_ = 0;
}

StringCountTable::Handle StringCountTable::Find(std::string_view key,
                                                uint64_t hash) const {
  if (buckets_.empty()) return kNone;
  const size_t mask = buckets_.size() - 1;
  for (size_t i = Home(hash);; i = (i + 1) & mask) {
    const Bucket& b = buckets_[i];
    if (b.handle == kNone) return kNone;
    if (b.hash == hash && KeyBytes(keys_[b.handle]) == key) return b.handle;
  }
}

EncoderStats::EncoderStats(const AttributedGraph& g)
    : offsets_(AttributeSlotOffsets(g)),
      slots_(offsets_.back()),
      numeric_(offsets_.back()) {
  for (size_t t = 0; t < g.num_node_types(); ++t) {
    const auto& defs = g.node_type_def(t).attributes;
    for (size_t a = 0; a < defs.size(); ++a) {
      Slot& slot = slots_[offsets_[t] + a];
      const uint64_t name = util::Fnv1aHash(defs[a].name);
      slot.token_prefix = util::Fnv1aExtend(name, "=");
      slot.null_hash = util::Fnv1aExtend(slot.token_prefix, "<null>");
      slot.z_hash = util::Fnv1aExtend(name, "#z");
      slot.abs_hash = util::Fnv1aExtend(name, "#abs");
    }
  }
  // Every node is an append to the empty state.
  std::vector<size_t> nodes;
  for (size_t v = 0; v < g.num_nodes(); ++v) nodes.push_back(v);
  Replan(g, nodes);
}

EncoderStats::~EncoderStats() = default;

template <typename SlotT>
void EncoderStats::BuildPlan(const AttributedGraph& g, size_t v,
                             SlotT* slots, std::vector<AttrPlan>* attrs,
                             std::vector<TokenPlan>* tokens) {
  constexpr bool kCount = !std::is_const_v<SlotT>;
  for (size_t a = 0; a < g.num_attributes(v); ++a) {
    const AttributeValue& val = g.value(v, a);
    AttrPlan plan;
    plan.kind = val.kind;
    if (val.kind == ValueKind::kNumeric) {
      plan.x = val.numeric;
    } else if (val.kind == ValueKind::kText) {
      SlotT& slot = slots[a];
      if constexpr (kCount) {
        slot.text_count += 1;
        plan.value = slot.values.Add(val.text, util::Fnv1aHash(val.text));
      }
      plan.first_token = tokens->size();
      util::ForEachWhitespaceToken(val.text, [&](std::string_view tok) {
        // The FNV-1a hash of "name=" + tok, from the slot's prefix state.
        const uint64_t h = util::Fnv1aExtend(slot.token_prefix, tok);
        if constexpr (kCount) {
          tokens->push_back({h, slot.tokens.Add(tok, h)});
        } else {
          tokens->push_back({h, slot.tokens.Find(tok, h)});
        }
      });
      plan.num_tokens =
          static_cast<uint32_t>(tokens->size() - plan.first_token);
      plan.x = 1.0 / std::sqrt(static_cast<double>(
                         std::max<size_t>(1, plan.num_tokens)));
    }
    attrs->push_back(plan);
  }
}

void EncoderStats::Replan(const AttributedGraph& g,
                          const std::vector<size_t>& nodes) {
  GALE_CHECK_EQ(offsets_.size(), g.num_node_types() + 1);
  const size_t planned = num_nodes();
  GALE_CHECK_GE(g.num_nodes(), planned);
  // Appended nodes get empty plan ranges first, so that each is then
  // replanned like any other node.
  for (size_t v = planned; v < g.num_nodes(); ++v) {
    attr_begin_.push_back(attr_begin_.back() + g.num_attributes(v));
  }
  attrs_.resize(attr_begin_.back());
  size_t appended = 0;
  std::vector<uint8_t> numeric_slots(slots_.size(), 0);
  std::vector<AttrPlan> fresh;
  for (const size_t v : nodes) {
    GALE_CHECK_LT(v, g.num_nodes());
    const size_t first_slot = offsets_[g.node_type(v)];
    Slot* slots = slots_.data() + first_slot;
    // The new plan enters the counts before the old one leaves them, so
    // a token both hold keeps its key and handle.
    fresh.clear();
    BuildPlan(g, v, slots, &fresh, &tokens_);
    if (v >= planned) {
      ++appended;
    } else {
      for (size_t a = 0; a < fresh.size(); ++a) {
        const AttrPlan& old = attrs_[attr_begin_[v] + a];
        if (old.kind == ValueKind::kNumeric) numeric_slots[first_slot + a] = 1;
        if (old.kind != ValueKind::kText) continue;
        slots[a].text_count -= 1;
        slots[a].values.Remove(old.value);
        for (size_t k = 0; k < old.num_tokens; ++k) {
          slots[a].tokens.Remove(tokens_[old.first_token + k].handle);
        }
        dead_tokens_ += old.num_tokens;
      }
    }
    for (size_t a = 0; a < fresh.size(); ++a) {
      if (fresh[a].kind == ValueKind::kNumeric) {
        numeric_slots[first_slot + a] = 1;
      }
      attrs_[attr_begin_[v] + a] = fresh[a];
    }
  }
  GALE_CHECK_EQ(appended, g.num_nodes() - planned)
      << "Replan: every appended node must be replanned";
  RefreshNumeric(g, numeric_slots);

  // Compaction: once dead tokens outnumber live ones, the live plans are
  // laid out again in node order.
  if (2 * dead_tokens_ > tokens_.size()) {
    std::vector<TokenPlan> live;
    live.reserve(tokens_.size() - dead_tokens_);
    for (AttrPlan& plan : attrs_) {
      if (plan.kind != ValueKind::kText) continue;
      const size_t first = live.size();
      live.insert(live.end(), tokens_.begin() + plan.first_token,
                  tokens_.begin() + plan.first_token + plan.num_tokens);
      plan.first_token = first;
    }
    tokens_ = std::move(live);
    dead_tokens_ = 0;
  }
}

void EncoderStats::RefreshNumeric(const AttributedGraph& g,
                                  const std::vector<uint8_t>& slots) {
  // A selected slot's numeric values, gathered from the plans in
  // ascending node order: the order NumericSlotStats reduces them in.
  std::vector<double> column;
  for (size_t t = 0; t + 1 < offsets_.size(); ++t) {
    for (size_t slot = offsets_[t]; slot < offsets_[t + 1]; ++slot) {
      if (!slots[slot]) continue;
      column.clear();
      for (size_t v = 0; v < num_nodes(); ++v) {
        if (g.node_type(v) != t) continue;
        const AttrPlan& plan = attrs_[attr_begin_[v] + (slot - offsets_[t])];
        if (plan.kind == ValueKind::kNumeric) column.push_back(plan.x);
      }
      numeric_[slot] = NumericMoments(column);
    }
  }
}

size_t FeatureEncoder::RawDims(const AttributedGraph& g) const {
  size_t d = options_.hash_dims;
  if (options_.include_type_onehot) d += g.num_node_types();
  if (options_.include_degree) d += 1;
  if (options_.include_quality_channels) d += kNumQualityChannels;
  return d;
}

void FeatureEncoder::ReplayRow(const AttributedGraph& g,
                               const EncoderStats& stats, size_t v,
                               const EncoderStats::AttrPlan* attrs,
                               const EncoderStats::TokenPlan* tokens,
                               double* row, size_t row_len) const {
  GALE_CHECK_EQ(row_len, RawDims(g));
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
  GALE_CHECK_EQ(stats.offsets_[t + 1] - stats.offsets_[t], num_attrs);
  const EncoderStats::Slot* slots = stats.slots_.data() + stats.offsets_[t];
  const NumericStats* numeric = stats.numeric_.data() + stats.offsets_[t];
  const bool quality = options_.include_quality_channels;
  double* buckets = row + offset + (quality ? kNumQualityChannels : 0);
  const size_t dims = options_.hash_dims;
  const size_t mask = std::has_single_bit(dims) ? dims - 1 : 0;

  // One pass over the attributes feeds both blocks. The quality channels
  // are [max |z|, mean |z|, rarest-token rarity, null fraction]. Every
  // bucket receives its additions in attribute order, then token order.
  double max_z = 0.0;
  double sum_z = 0.0;
  size_t numeric_count = 0;
  // Rarity 1 / log2(2 + count) falls as the count grows, so the rarest
  // token's rarity is that of the smallest count.
  size_t min_count = SIZE_MAX;
  size_t null_count = 0;
  for (size_t a = 0; a < num_attrs; ++a) {
    const EncoderStats::Slot& slot = slots[a];
    const EncoderStats::AttrPlan& plan = attrs[a];
    if (plan.kind == ValueKind::kNull) {
      ++null_count;
      HashInto(slot.null_hash, 1.0, buckets, dims, mask);
      continue;
    }
    if (plan.kind == ValueKind::kNumeric) {
      const NumericStats& s = numeric[a];
      if (quality) {
        const double z = AbsZScore(s, plan.x);
        max_z = std::max(max_z, z);
        sum_z += z;
        ++numeric_count;
      }
      // z-score through a signed bucket, |z| through a second one: outlier
      // magnitude is visible regardless of the hashed sign.
      const double z = (plan.x - s.mean) / std::max(s.stddev, 1e-9);
      HashInto(slot.z_hash, z, buckets, dims, mask);
      HashInto(slot.abs_hash, std::abs(z), buckets, dims, mask);
      continue;
    }
    const EncoderStats::TokenPlan* tok = tokens + plan.first_token;
    for (size_t k = 0; k < plan.num_tokens; ++k) {
      HashInto(tok[k].hash, plan.x, buckets, dims, mask);
    }
    if (quality && !slot.key_like()) {
      for (size_t k = 0; k < plan.num_tokens; ++k) {
        min_count = std::min(min_count, slot.tokens.count(tok[k].handle));
      }
    }
  }
  if (quality) {
    row[offset + 0] = std::min(max_z, 12.0);
    row[offset + 1] =
        numeric_count > 0
            ? std::min(sum_z / static_cast<double>(numeric_count), 12.0)
            : 0.0;
    // Rarity ~ 1 for unseen/singleton tokens, ~ 0 for common ones.
    row[offset + 2] =
        min_count == SIZE_MAX
            ? 0.0
            : 1.0 / std::log2(2.0 + static_cast<double>(min_count));
    row[offset + 3] = num_attrs == 0 ? 0.0
                                     : static_cast<double>(null_count) /
                                           static_cast<double>(num_attrs);
  }
}

void FeatureEncoder::EncodeNode(const AttributedGraph& g,
                                const EncoderStats& stats, size_t v,
                                double* row, size_t row_len) const {
  GALE_CHECK_EQ(stats.offsets_.size(), g.num_node_types() + 1);
  GALE_CHECK_LT(v, g.num_nodes());
  std::vector<EncoderStats::AttrPlan> attrs;
  std::vector<EncoderStats::TokenPlan> tokens;
  EncoderStats::BuildPlan(g, v,
                          stats.slots_.data() + stats.offsets_[g.node_type(v)],
                          &attrs, &tokens);
  std::fill(row, row + row_len, 0.0);
  ReplayRow(g, stats, v, attrs.data(), tokens.data(), row, row_len);
}

util::Result<la::Matrix> FeatureEncoder::Encode(
    const AttributedGraph& g) const {
  return Encode(g, EncoderStats(g));
}

util::Result<la::Matrix> FeatureEncoder::Encode(
    const AttributedGraph& g, const EncoderStats& stats) const {
  if (options_.include_degree && !g.finalized()) {
    return util::Status::FailedPrecondition(
        "FeatureEncoder: degree channel needs a finalized graph");
  }
  if (options_.hash_dims == 0) {
    return util::Status::InvalidArgument("FeatureEncoder: hash_dims == 0");
  }
  GALE_CHECK_EQ(stats.offsets_.size(), g.num_node_types() + 1);
  GALE_CHECK_EQ(stats.num_nodes(), g.num_nodes());
  const size_t raw = RawDims(g);
  la::Matrix features(g.num_nodes(), raw);
  for (size_t v = 0; v < g.num_nodes(); ++v) {
    ReplayRow(g, stats, v, stats.attrs_.data() + stats.attr_begin_[v],
              stats.tokens_.data(), features.RowPtr(v), raw);
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
