#include "detect/string_detector.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "graph/attribute_stats.h"
#include "util/string_util.h"

namespace gale::detect {

namespace {

// Character-bigram model over a token population, with add-one smoothing.
class BigramModel {
 public:
  void AddToken(const std::string& token, size_t count) {
    std::string padded = "^" + token + "$";
    for (size_t i = 0; i + 1 < padded.size(); ++i) {
      counts_[{padded[i], padded[i + 1]}] += count;
      total_ += count;
    }
  }

  // Mean log probability of the token's bigrams.
  double MeanLogProb(const std::string& token) const {
    if (total_ == 0) return 0.0;
    std::string padded = "^" + token + "$";
    double sum = 0.0;
    size_t n = 0;
    for (size_t i = 0; i + 1 < padded.size(); ++i) {
      auto it = counts_.find({padded[i], padded[i + 1]});
      const double c = it == counts_.end() ? 0.0 : static_cast<double>(
                                                       it->second);
      sum += std::log((c + 1.0) / (static_cast<double>(total_) + 729.0));
      ++n;
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  }

 private:
  std::map<std::pair<char, char>, size_t> counts_;
  size_t total_ = 0;
};

}  // namespace

std::vector<DetectedError> StringNoiseDetector::Detect(
    const graph::AttributedGraph& g) const {
  const graph::AttributeStats stats(g);
  std::vector<DetectedError> out;

  for (size_t t = 0; t < g.num_node_types(); ++t) {
    const auto& attrs = g.node_type_def(t).attributes;
    for (size_t a = 0; a < attrs.size(); ++a) {
      if (attrs[a].kind != graph::ValueKind::kText) continue;
      const graph::TextStats& slot = stats.Text(t, a);
      if (slot.tokens.empty()) continue;

      const bool key_like =
          slot.count > 0 &&
          static_cast<double>(slot.values.size()) >
              options_.key_like_distinct_ratio *
                  static_cast<double>(slot.count);

      // Frequent tokens for misspelling lookup, plus the bigram model.
      BigramModel bigrams;
      std::vector<std::pair<const std::string*, size_t>> frequent;
      for (const auto& [token, count] : slot.tokens) {
        bigrams.AddToken(token, count);
        if (count >= 3) frequent.emplace_back(&token, count);
      }

      // Population statistics of the bigram log-likelihood (per token
      // occurrence) to calibrate the junk threshold.
      double mean = 0.0;
      double sq = 0.0;
      size_t total_tokens = 0;
      // Audited (gale_analyze unordered-iter): keyed lookups only — both
      // passes iterate the ordered slot.tokens map and merely probe this
      // memo, so hash order cannot reach the output.
      std::unordered_map<std::string, double> loglik;
      for (const auto& [token, count] : slot.tokens) {
        const double lp = bigrams.MeanLogProb(token);
        loglik[token] = lp;
        mean += lp * static_cast<double>(count);
        total_tokens += count;
      }
      if (total_tokens == 0) continue;
      mean /= static_cast<double>(total_tokens);
      for (const auto& [token, count] : slot.tokens) {
        const double d = loglik[token] - mean;
        sq += d * d * static_cast<double>(count);
      }
      const double stddev =
          std::sqrt(sq / static_cast<double>(total_tokens)) + 1e-9;
      const double junk_cutoff = mean - options_.junk_sigma * stddev;

      // Scan the nodes of this slot.
      for (size_t v = 0; v < g.num_nodes(); ++v) {
        if (g.node_type(v) != t) continue;
        const graph::AttributeValue& val = g.value(v, a);
        if (val.is_null()) {
          out.push_back({v, a, 0.9, {}});
          continue;
        }
        if (val.kind != graph::ValueKind::kText) continue;

        double worst_conf = 0.0;
        std::vector<graph::AttributeValue> suggestions;
        for (const std::string& tok : util::SplitWhitespace(val.text)) {
          const auto freq_it = slot.tokens.find(tok);
          const size_t tok_count =
              freq_it == slot.tokens.end() ? 0 : freq_it->second;

          // Junk: far-below-typical bigram likelihood.
          const double lp = loglik.count(tok) ? loglik[tok]
                                              : bigrams.MeanLogProb(tok);
          if (lp < junk_cutoff) {
            worst_conf = std::max(worst_conf, 0.8);
          }

          // Misspelling: rare token close to a much more frequent one.
          if (!key_like && tok_count <= 1) {
            for (const auto& [freq_tok, freq_count] : frequent) {
              if (static_cast<double>(freq_count) <
                  options_.misspelling_frequency_ratio *
                      static_cast<double>(std::max<size_t>(tok_count, 1))) {
                continue;
              }
              const size_t dist = util::EditDistance(
                  tok, *freq_tok, options_.max_edit_distance);
              if (dist <= options_.max_edit_distance && dist > 0) {
                worst_conf = std::max(worst_conf, 0.7);
                // Suggest the corrected full value (single-token values
                // invert cleanly; multi-token ones suggest the token).
                if (util::SplitWhitespace(val.text).size() == 1) {
                  suggestions.push_back(
                      graph::AttributeValue::Text(*freq_tok));
                }
                break;
              }
            }
          }
        }
        if (worst_conf > 0.0) {
          out.push_back({v, a, worst_conf, std::move(suggestions)});
        }
      }
    }
  }
  return out;
}

}  // namespace gale::detect
