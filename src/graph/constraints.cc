#include "graph/constraints.h"

#include <algorithm>
#include <unordered_map>

#include "util/logging.h"
#include "util/string_util.h"

namespace gale::graph {

const char* ConstraintKindName(ConstraintKind kind) {
  switch (kind) {
    case ConstraintKind::kEdgeAgreement:
      return "EdgeAgreement";
    case ConstraintKind::kFunctionalDependency:
      return "FunctionalDependency";
    case ConstraintKind::kDomain:
      return "Domain";
  }
  return "Unknown";
}

std::string Constraint::DebugString(const AttributedGraph& g) const {
  const NodeTypeDef& t = g.node_type_def(node_type);
  std::string out = ConstraintKindName(kind);
  out += "(" + t.name;
  switch (kind) {
    case ConstraintKind::kEdgeAgreement:
      out += ", edge=" + g.edge_type_name(edge_type) +
             ", attr=" + t.attributes[attr].name;
      break;
    case ConstraintKind::kFunctionalDependency:
      out += ", " + t.attributes[lhs_attr].name + " -> " +
             t.attributes[attr].name;
      break;
    case ConstraintKind::kDomain:
      out += ", attr=" + t.attributes[attr].name +
             ", |domain|=" + std::to_string(domain.size());
      break;
  }
  out += ", support=" + std::to_string(support) +
         ", conf=" + util::FormatDouble(confidence, 3) + ")";
  return out;
}

util::Result<std::vector<Constraint>> ConstraintMiner::Mine(
    const AttributedGraph& g) const {
  if (!g.finalized()) {
    return util::Status::FailedPrecondition("ConstraintMiner: graph not "
                                            "finalized");
  }
  std::vector<Constraint> out;
  MineEdgeAgreement(g, &out);
  MineFunctionalDependencies(g, &out);
  MineDomains(g, &out);
  return out;
}

void ConstraintMiner::MineEdgeAgreement(const AttributedGraph& g,
                                        std::vector<Constraint>* out) const {
  // For every (node_type, edge_type, text attribute), count same-type edges
  // whose endpoints agree on the attribute.
  struct Counter {
    size_t total = 0;
    size_t agree = 0;
  };
  std::map<std::tuple<size_t, size_t, size_t>, Counter> counters;

  for (const auto& [u, v, et] : g.edges()) {
    if (g.node_type(u) != g.node_type(v)) continue;
    const size_t nt = g.node_type(u);
    const auto& attrs = g.node_type_def(nt).attributes;
    for (size_t a = 0; a < attrs.size(); ++a) {
      if (attrs[a].kind != ValueKind::kText) continue;
      const AttributeValue& lhs = g.value(u, a);
      const AttributeValue& rhs = g.value(v, a);
      if (lhs.is_null() || rhs.is_null()) continue;
      Counter& c = counters[{nt, et, a}];
      c.total += 1;
      if (lhs == rhs) c.agree += 1;
    }
  }

  for (const auto& [key, c] : counters) {
    if (c.total < options_.min_support) continue;
    const double conf = static_cast<double>(c.agree) /
                        static_cast<double>(c.total);
    if (conf < options_.min_confidence) continue;
    Constraint k;
    k.kind = ConstraintKind::kEdgeAgreement;
    k.node_type = std::get<0>(key);
    k.edge_type = std::get<1>(key);
    k.attr = std::get<2>(key);
    k.support = c.total;
    k.confidence = conf;
    out->push_back(std::move(k));
  }
}

void ConstraintMiner::MineFunctionalDependencies(
    const AttributedGraph& g, std::vector<Constraint>* out) const {
  for (size_t nt = 0; nt < g.num_node_types(); ++nt) {
    const auto& attrs = g.node_type_def(nt).attributes;
    for (size_t lhs = 0; lhs < attrs.size(); ++lhs) {
      if (attrs[lhs].kind != ValueKind::kText) continue;
      for (size_t rhs = 0; rhs < attrs.size(); ++rhs) {
        if (rhs == lhs || attrs[rhs].kind != ValueKind::kText) continue;
        // Group rhs values by lhs value.
        std::map<std::string, std::map<std::string, size_t>> groups;
        size_t total = 0;
        for (size_t v = 0; v < g.num_nodes(); ++v) {
          if (g.node_type(v) != nt) continue;
          const AttributeValue& lv = g.value(v, lhs);
          const AttributeValue& rv = g.value(v, rhs);
          if (lv.is_null() || rv.is_null()) continue;
          groups[lv.text][rv.text] += 1;
          total += 1;
        }
        if (total < options_.min_support || groups.empty()) continue;
        // Skip key-like lhs attributes: an FD whose lhs is (nearly) unique
        // per node is vacuous and useless for repair.
        if (groups.size() * 2 > total) continue;
        size_t majority_sum = 0;
        std::map<std::string, std::string> mapping;
        for (const auto& [lhs_value, rhs_counts] : groups) {
          const auto best = std::max_element(
              rhs_counts.begin(), rhs_counts.end(),
              [](const auto& a, const auto& b) { return a.second < b.second; });
          majority_sum += best->second;
          mapping[lhs_value] = best->first;
        }
        const double conf = static_cast<double>(majority_sum) /
                            static_cast<double>(total);
        if (conf < options_.min_confidence) continue;
        Constraint k;
        k.kind = ConstraintKind::kFunctionalDependency;
        k.node_type = nt;
        k.lhs_attr = lhs;
        k.attr = rhs;
        k.fd_mapping = std::move(mapping);
        k.support = total;
        k.confidence = conf;
        out->push_back(std::move(k));
      }
    }
  }
}

void ConstraintMiner::MineDomains(const AttributedGraph& g,
                                  std::vector<Constraint>* out) const {
  for (size_t nt = 0; nt < g.num_node_types(); ++nt) {
    const auto& attrs = g.node_type_def(nt).attributes;
    for (size_t a = 0; a < attrs.size(); ++a) {
      if (attrs[a].kind != ValueKind::kText) continue;
      std::map<std::string, size_t> freq;
      size_t total = 0;
      for (size_t v = 0; v < g.num_nodes(); ++v) {
        if (g.node_type(v) != nt) continue;
        const AttributeValue& val = g.value(v, a);
        if (val.is_null()) continue;
        freq[val.text] += 1;
        total += 1;
      }
      if (total < options_.min_support || freq.empty()) continue;
      if (freq.size() > options_.max_domain_size) continue;
      // Keep values that individually clear a small frequency floor; the
      // domain is a constraint only if it covers min_confidence of nodes.
      const size_t floor = std::max<size_t>(2, total / 200);
      std::set<std::string> domain;
      size_t covered = 0;
      for (const auto& [value, count] : freq) {
        if (count >= floor) {
          domain.insert(value);
          covered += count;
        }
      }
      const double conf =
          static_cast<double>(covered) / static_cast<double>(total);
      if (domain.empty() || conf < options_.min_confidence) continue;
      Constraint k;
      k.kind = ConstraintKind::kDomain;
      k.node_type = nt;
      k.attr = a;
      k.domain = std::move(domain);
      k.support = total;
      k.confidence = conf;
      out->push_back(std::move(k));
    }
  }
}

namespace {

// Nearest domain value to `value` by edit distance (ties: lexicographic).
AttributeValue NearestDomainValue(const std::set<std::string>& domain,
                                  const std::string& value) {
  std::string best;
  size_t best_dist = SIZE_MAX;
  for (const std::string& candidate : domain) {
    const size_t d = util::EditDistance(value, candidate, best_dist);
    if (d < best_dist) {
      best_dist = d;
      best = candidate;
    }
  }
  return best.empty() ? AttributeValue::Null() : AttributeValue::Text(best);
}

}  // namespace

std::vector<Violation> CheckConstraints(
    const AttributedGraph& g, const std::vector<Constraint>& constraints) {
  std::vector<Violation> violations;

  // Edge-agreement constraints are grouped by (node type, attribute) and
  // their evidence pooled across edge types: an endpoint of a disagreeing
  // edge is flagged only when it disagrees with at least half of its
  // relevant neighbors overall. With a single witness both endpoints
  // remain suspects (Example 1's "either v1 or v2" vagueness), but a node
  // contradicting an otherwise consistent neighborhood is the culprit and
  // its innocent neighbors are spared.
  std::map<std::pair<size_t, size_t>, std::vector<size_t>> agreement_groups;
  for (size_t ci = 0; ci < constraints.size(); ++ci) {
    const Constraint& k = constraints[ci];
    if (k.kind == ConstraintKind::kEdgeAgreement) {
      agreement_groups[{k.node_type, k.attr}].push_back(ci);
    }
  }
  for (const auto& [key, group] : agreement_groups) {
    const auto [node_type, attr] = key;
    std::set<size_t> edge_types;
    for (size_t ci : group) edge_types.insert(constraints[ci].edge_type);
    // edge type -> group constraint index (for violation attribution).
    std::map<size_t, size_t> constraint_of_edge_type;
    for (size_t ci : group) {
      constraint_of_edge_type[constraints[ci].edge_type] = ci;
    }

    // Audited (gale_analyze unordered-iter): keyed lookups only — filled in
    // this pass, probed per-edge below, never iterated, so hash order
    // cannot reach the output.
    std::unordered_map<size_t, std::pair<size_t, size_t>> tallies;
    for (const auto& [u, v, et] : g.edges()) {
      if (edge_types.count(et) == 0) continue;
      if (g.node_type(u) != node_type || g.node_type(v) != node_type) {
        continue;
      }
      const AttributeValue& lhs = g.value(u, attr);
      const AttributeValue& rhs = g.value(v, attr);
      if (lhs.is_null() || rhs.is_null()) continue;
      if (lhs == rhs) {
        tallies[u].first += 1;
        tallies[v].first += 1;
      } else {
        tallies[u].second += 1;
        tallies[v].second += 1;
      }
    }
    for (const auto& [u, v, et] : g.edges()) {
      if (edge_types.count(et) == 0) continue;
      if (g.node_type(u) != node_type || g.node_type(v) != node_type) {
        continue;
      }
      const AttributeValue& lhs = g.value(u, attr);
      const AttributeValue& rhs = g.value(v, attr);
      if (lhs.is_null() || rhs.is_null() || lhs == rhs) continue;
      const size_t ci = constraint_of_edge_type.at(et);
      const auto& [agree_u, disagree_u] = tallies[u];
      const auto& [agree_v, disagree_v] = tallies[v];
      if (disagree_u >= agree_u) {
        violations.push_back({u, attr, ci, rhs});
      }
      if (disagree_v >= agree_v) {
        violations.push_back({v, attr, ci, lhs});
      }
    }
  }

  for (size_t ci = 0; ci < constraints.size(); ++ci) {
    const Constraint& k = constraints[ci];
    switch (k.kind) {
      case ConstraintKind::kEdgeAgreement:
        break;  // handled above
      case ConstraintKind::kFunctionalDependency: {
        for (size_t v = 0; v < g.num_nodes(); ++v) {
          if (g.node_type(v) != k.node_type) continue;
          const AttributeValue& lv = g.value(v, k.lhs_attr);
          const AttributeValue& rv = g.value(v, k.attr);
          if (lv.is_null() || rv.is_null()) continue;
          auto it = k.fd_mapping.find(lv.text);
          if (it == k.fd_mapping.end()) continue;
          if (rv.text != it->second) {
            violations.push_back(
                {v, k.attr, ci, AttributeValue::Text(it->second)});
          }
        }
        break;
      }
      case ConstraintKind::kDomain: {
        for (size_t v = 0; v < g.num_nodes(); ++v) {
          if (g.node_type(v) != k.node_type) continue;
          const AttributeValue& val = g.value(v, k.attr);
          if (val.is_null()) continue;
          if (k.domain.count(val.text) == 0) {
            violations.push_back(
                {v, k.attr, ci, NearestDomainValue(k.domain, val.text)});
          }
        }
        break;
      }
    }
  }
  return violations;
}

std::vector<AttributeValue> SuggestCorrections(
    const AttributedGraph& g, const std::vector<Constraint>& constraints,
    size_t v, size_t attr) {
  GALE_CHECK_LT(v, g.num_nodes());
  std::vector<std::pair<AttributeValue, size_t>> candidates;  // value, weight
  const size_t nt = g.node_type(v);
  for (const Constraint& k : constraints) {
    if (k.node_type != nt || k.attr != attr) continue;
    switch (k.kind) {
      case ConstraintKind::kEdgeAgreement: {
        // Suggest the values of the neighbors connected by the edge type.
        for (const Neighbor* it = g.NeighborsBegin(v); it != g.NeighborsEnd(v);
             ++it) {
          if (it->edge_type != k.edge_type) continue;
          if (g.node_type(it->node) != nt) continue;
          const AttributeValue& nv = g.value(it->node, attr);
          if (!nv.is_null() && nv != g.value(v, attr)) {
            candidates.emplace_back(nv, k.support);
          }
        }
        break;
      }
      case ConstraintKind::kFunctionalDependency: {
        const AttributeValue& lv = g.value(v, k.lhs_attr);
        if (lv.is_null()) break;
        auto it = k.fd_mapping.find(lv.text);
        if (it != k.fd_mapping.end() && g.value(v, attr).text != it->second) {
          candidates.emplace_back(AttributeValue::Text(it->second),
                                  k.support * 2);  // FDs are the strongest cue
        }
        break;
      }
      case ConstraintKind::kDomain: {
        const AttributeValue& val = g.value(v, attr);
        if (!val.is_null() && k.domain.count(val.text) == 0) {
          candidates.emplace_back(NearestDomainValue(k.domain, val.text),
                                  k.support);
        }
        break;
      }
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  std::vector<AttributeValue> out;
  for (auto& [value, weight] : candidates) {
    if (value.is_null()) continue;
    bool duplicate = false;
    for (const AttributeValue& existing : out) {
      if (existing == value) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) out.push_back(std::move(value));
  }
  return out;
}

}  // namespace gale::graph
