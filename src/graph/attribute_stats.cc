#include "graph/attribute_stats.h"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "util/logging.h"
#include "util/string_util.h"

namespace gale::graph {

std::vector<size_t> AttributeSlotOffsets(const AttributedGraph& g) {
  std::vector<size_t> offsets(g.num_node_types() + 1, 0);
  for (size_t t = 0; t < g.num_node_types(); ++t) {
    offsets[t + 1] = offsets[t] + g.node_type_def(t).attributes.size();
  }
  return offsets;
}

NumericStats NumericMoments(const std::vector<double>& values) {
  NumericStats s;
  if (values.empty()) return s;
  double sum = 0.0;
  s.min = s.max = values[0];
  for (const double x : values) {
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
    sum += x;
  }
  s.count = values.size();
  s.mean = sum / static_cast<double>(s.count);
  if (s.count > 1) {
    double sq = 0.0;
    for (const double x : values) {
      const double d = x - s.mean;
      sq += d * d;
    }
    s.stddev = std::sqrt(sq / static_cast<double>(s.count - 1));
  }
  return s;
}

std::vector<NumericStats> NumericSlotStats(const AttributedGraph& g,
                                           const std::vector<size_t>& offsets) {
  std::vector<std::vector<double>> columns(offsets.back());
  for (size_t v = 0; v < g.num_nodes(); ++v) {
    const size_t first = offsets[g.node_type(v)];
    for (size_t a = 0; a < g.num_attributes(v); ++a) {
      const AttributeValue& val = g.value(v, a);
      if (val.kind == ValueKind::kNumeric) {
        columns[first + a].push_back(val.numeric);
      }
    }
  }
  std::vector<NumericStats> numeric(columns.size());
  for (size_t slot = 0; slot < columns.size(); ++slot) {
    numeric[slot] = NumericMoments(columns[slot]);
  }
  return numeric;
}

AttributeStats::AttributeStats(const AttributedGraph& g)
    : type_offsets_(AttributeSlotOffsets(g)),
      numeric_(NumericSlotStats(g, type_offsets_)),
      text_(type_offsets_.back()) {
  for (size_t v = 0; v < g.num_nodes(); ++v) {
    const size_t t = g.node_type(v);
    for (size_t a = 0; a < g.num_attributes(v); ++a) {
      const AttributeValue& val = g.value(v, a);
      if (val.kind != ValueKind::kText) continue;
      TextStats& s = text_[type_offsets_[t] + a];
      s.count += 1;
      s.values[val.text] += 1;
      util::ForEachWhitespaceToken(val.text, [&](std::string_view tok) {
        s.tokens[std::string(tok)] += 1;
      });
    }
  }
}

size_t AttributeStats::SlotIndex(size_t type, size_t attr) const {
  GALE_CHECK_LT(type + 1, type_offsets_.size());
  const size_t slot = type_offsets_[type] + attr;
  GALE_CHECK_LT(slot, type_offsets_[type + 1]);
  return slot;
}

const NumericStats& AttributeStats::Numeric(size_t type, size_t attr) const {
  return numeric_[SlotIndex(type, attr)];
}

const TextStats& AttributeStats::Text(size_t type, size_t attr) const {
  return text_[SlotIndex(type, attr)];
}

double AttributeStats::ZScore(size_t type, size_t attr, double value) const {
  return AbsZScore(Numeric(type, attr), value);
}

}  // namespace gale::graph
