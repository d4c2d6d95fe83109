#include "util/string_util.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace gale::util {

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  ForEachWhitespaceToken(s,
                         [&](std::string_view tok) { out.emplace_back(tok); });
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string Trim(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return std::string(s.substr(begin, end - begin));
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

size_t EditDistance(std::string_view a, std::string_view b,
                    size_t max_distance) {
  if (a.size() > b.size()) std::swap(a, b);
  const size_t m = a.size();
  const size_t n = b.size();
  if (n - m > max_distance) return max_distance + 1;

  std::vector<size_t> prev(m + 1), cur(m + 1);
  for (size_t i = 0; i <= m; ++i) prev[i] = i;
  for (size_t j = 1; j <= n; ++j) {
    cur[0] = j;
    size_t row_min = cur[0];
    for (size_t i = 1; i <= m; ++i) {
      const size_t sub_cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      cur[i] = std::min({prev[i] + 1, cur[i - 1] + 1, prev[i - 1] + sub_cost});
      row_min = std::min(row_min, cur[i]);
    }
    if (row_min > max_distance) return max_distance + 1;
    std::swap(prev, cur);
  }
  return prev[m];
}

std::string FormatDouble(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return std::string(buf);
}

}  // namespace gale::util
