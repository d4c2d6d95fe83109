// Per-(node type, attribute) statistics over a graph: mean/stddev for
// numeric attributes and value/token frequencies for text attributes.
// Shared by the error injector (to place outliers relative to the value
// distribution) and the outlier/string base detectors.

#ifndef GALE_GRAPH_ATTRIBUTE_STATS_H_
#define GALE_GRAPH_ATTRIBUTE_STATS_H_

#include <cmath>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "graph/attributed_graph.h"

namespace gale::graph {

struct NumericStats {
  size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

struct TextStats {
  size_t count = 0;                        // non-null values
  std::map<std::string, size_t> values;    // full-value frequencies
  std::map<std::string, size_t> tokens;    // whitespace-token frequencies
};

// Slot layout shared by the per-slot statistics: node type t owns slots
// [offsets[t], offsets[t + 1]), one per attribute; offsets.back() is the
// slot count.
std::vector<size_t> AttributeSlotOffsets(const AttributedGraph& g);

// Count, min, max, mean and sample stddev of `values`: a sum pass, then
// a squared-deviation pass, each in index order. The one definition of
// these moments: NumericSlotStats and the feature encoder's warm state
// both reduce a slot's values, in ascending node order, through it.
NumericStats NumericMoments(const std::vector<double>& values);

// NumericMoments of the numeric values of every slot.
std::vector<NumericStats> NumericSlotStats(const AttributedGraph& g,
                                           const std::vector<size_t>& offsets);

// |value - mean| / stddev, or 0 when the stats are degenerate (fewer than
// two values or stddev < 1e-12). The one z-score policy: the outlier
// detector (through AttributeStats::ZScore) and the feature encoder's
// quality channels both use it.
inline double AbsZScore(const NumericStats& s, double value) {
  if (s.count < 2 || s.stddev < 1e-12) return 0.0;
  return std::abs(value - s.mean) / s.stddev;
}

// Statistics for every (type, attribute) slot of a graph, computed once.
class AttributeStats {
 public:
  // Scans all nodes of `g`. O(sum of attribute values).
  explicit AttributeStats(const AttributedGraph& g);

  // Stats for numeric attribute `attr` of node type `type`. Zeroed stats
  // (count == 0) when the slot is not numeric or has no values.
  const NumericStats& Numeric(size_t type, size_t attr) const;
  const TextStats& Text(size_t type, size_t attr) const;

  // AbsZScore against this slot's numeric stats.
  double ZScore(size_t type, size_t attr, double value) const;

 private:
  size_t SlotIndex(size_t type, size_t attr) const;

  std::vector<size_t> type_offsets_;
  std::vector<NumericStats> numeric_;
  std::vector<TextStats> text_;
};

}  // namespace gale::graph

#endif  // GALE_GRAPH_ATTRIBUTE_STATS_H_
