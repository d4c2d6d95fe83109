// String helpers shared across the library: tokenization for the feature
// encoder, edit distance for the string-noise detector, and small
// formatting utilities for reports.

#ifndef GALE_UTIL_STRING_UTIL_H_
#define GALE_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gale::util {

// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

// True for the bytes std::isspace accepts in the "C" locale: space, \t,
// \n, \v, \f and \r. Bytes >= 0x80 are never whitespace.
constexpr bool IsAsciiSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

// Calls `fn(token)` for each maximal run of non-whitespace bytes of `s`,
// in order. Tokens are views into `s`; nothing is allocated.
template <typename Fn>
void ForEachWhitespaceToken(std::string_view s, Fn&& fn) {
  const size_t n = s.size();
  size_t i = 0;
  while (i < n) {
    while (i < n && IsAsciiSpace(s[i])) ++i;
    const size_t start = i;
    while (i < n && !IsAsciiSpace(s[i])) ++i;
    if (i > start) fn(s.substr(start, i - start));
  }
}

// Splits `s` on any whitespace run, dropping empty tokens: the tokens
// ForEachWhitespaceToken visits, copied.
std::vector<std::string> SplitWhitespace(std::string_view s);

// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// Removes leading and trailing ASCII whitespace.
std::string Trim(std::string_view s);

// ASCII lowercase copy.
std::string ToLower(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

// Levenshtein edit distance (insert/delete/substitute, unit costs).
// Used by the string-noise detector to find near-miss misspellings, with an
// optional cap: once the distance provably exceeds `max_distance` the
// function returns max_distance + 1 without finishing the table.
size_t EditDistance(std::string_view a, std::string_view b,
                    size_t max_distance = SIZE_MAX);

// The FNV-1a 64-bit state before any byte: Fnv1aHash("").
inline constexpr uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ULL;

// Continues an FNV-1a state over `s`, so that
// Fnv1aExtend(Fnv1aHash(a), b) == Fnv1aHash(a + b).
inline uint64_t Fnv1aExtend(uint64_t state, std::string_view s) {
  for (const char c : s) {
    state ^= static_cast<unsigned char>(c);
    state *= 0x100000001b3ULL;
  }
  return state;
}

// FNV-1a 64-bit hash; the feature encoder's token hashing is built on it.
inline uint64_t Fnv1aHash(std::string_view s) {
  return Fnv1aExtend(kFnv1aOffsetBasis, s);
}

// Formats `value` with `decimals` digits after the point ("0.7321").
std::string FormatDouble(double value, int decimals);

}  // namespace gale::util

#endif  // GALE_UTIL_STRING_UTIL_H_
