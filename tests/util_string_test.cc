#include "util/string_util.h"

#include <cctype>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace gale::util {
namespace {

TEST(SplitTest, BasicAndEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitWhitespaceTest, DropsRuns) {
  EXPECT_EQ(SplitWhitespace("  foo \t bar\nbaz "),
            (std::vector<std::string>{"foo", "bar", "baz"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
  EXPECT_TRUE(SplitWhitespace("").empty());
}

// The tokens ForEachWhitespaceToken visits, copied.
std::vector<std::string> VisitedTokens(std::string_view s) {
  std::vector<std::string> out;
  ForEachWhitespaceToken(s, [&](std::string_view tok) {
    EXPECT_FALSE(tok.empty());
    out.emplace_back(tok);
  });
  return out;
}

TEST(SplitWhitespaceTest, VisitorAndSplitAgree) {
  const std::string high = "caf\xc3\xa9 \x80\xff\xa0x";
  const std::vector<std::pair<std::string, std::vector<std::string>>> cases =
      {
          {"a\tb\nc\vd\fe\rf", {"a", "b", "c", "d", "e", "f"}},
          {"a \t\n\v\f\r  b", {"a", "b"}},
          {"  \t lead", {"lead"}},
          {"trail \n\f", {"trail"}},
          {"", {}},
          {" \t\n\v\f\r", {}},
          {"one", {"one"}},
          // Bytes >= 0x80 (UTF-8 and stray high bytes, 0xa0 included) are
          // token bytes, never separators.
          {high, {"caf\xc3\xa9", "\x80\xff\xa0x"}},
      };
  for (const auto& [text, want] : cases) {
    EXPECT_EQ(VisitedTokens(text), want) << "visitor on '" << text << "'";
    EXPECT_EQ(SplitWhitespace(text), want) << "split on '" << text << "'";
  }
  for (int c = 0; c < 256; ++c) {
    const char ch = static_cast<char>(c);
    EXPECT_EQ(IsAsciiSpace(ch), c < 128 && std::isspace(c) != 0) << c;
  }
}

TEST(JoinTest, Joins) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(TrimTest, Trims) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("\ta b\n"), "a b");
}

TEST(ToLowerTest, Lowers) {
  EXPECT_EQ(ToLower("AbC123"), "abc123");
}

TEST(PrefixSuffixTest, Works) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foobar", "bar"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("foobar", "foo"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_FALSE(StartsWith("", "x"));
}

struct EditCase {
  const char* a;
  const char* b;
  size_t expected;
};

class EditDistanceTest : public ::testing::TestWithParam<EditCase> {};

TEST_P(EditDistanceTest, MatchesExpected) {
  const EditCase& c = GetParam();
  EXPECT_EQ(EditDistance(c.a, c.b), c.expected);
  EXPECT_EQ(EditDistance(c.b, c.a), c.expected) << "symmetric";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, EditDistanceTest,
    ::testing::Values(EditCase{"", "", 0}, EditCase{"a", "", 1},
                      EditCase{"abc", "abc", 0}, EditCase{"abc", "abd", 1},
                      EditCase{"abc", "ab", 1}, EditCase{"abc", "xabc", 1},
                      EditCase{"kitten", "sitting", 3},
                      EditCase{"flaw", "lawn", 2},
                      EditCase{"Malvaceae", "Melvaceae", 1}));

TEST(EditDistanceTest, CapShortCircuits) {
  // Distance is 3; a cap of 1 must return cap + 1.
  EXPECT_EQ(EditDistance("kitten", "sitting", 1), 2u);
  // Length difference alone can exceed the cap.
  EXPECT_EQ(EditDistance("a", "abcdef", 2), 3u);
  // Within the cap the exact value comes back.
  EXPECT_EQ(EditDistance("kitten", "sitting", 5), 3u);
}

TEST(FnvHashTest, StableAndSpreads) {
  EXPECT_EQ(Fnv1aHash("abc"), Fnv1aHash("abc"));
  EXPECT_NE(Fnv1aHash("abc"), Fnv1aHash("abd"));
  EXPECT_NE(Fnv1aHash(""), Fnv1aHash("a"));
}

TEST(FnvHashTest, ExtendContinuesAPrefix) {
  EXPECT_EQ(Fnv1aHash(""), kFnv1aOffsetBasis);
  for (const auto& [a, b] : std::vector<std::pair<std::string, std::string>>{
           {"name=", "token"}, {"", "abc"}, {"abc", ""}, {"x#", "z"},
           {"caf\xc3", "\xa9\xff"}}) {
    EXPECT_EQ(Fnv1aExtend(Fnv1aHash(a), b), Fnv1aHash(a + b)) << a << b;
  }
  // The state after a prefix can be extended piecewise.
  EXPECT_EQ(Fnv1aExtend(Fnv1aExtend(Fnv1aHash("n"), "ame="), "tok"),
            Fnv1aHash("name=tok"));
}

TEST(FormatDoubleTest, Formats) {
  EXPECT_EQ(FormatDouble(0.73219, 4), "0.7322");
  EXPECT_EQ(FormatDouble(1.0, 2), "1.00");
  EXPECT_EQ(FormatDouble(-2.5, 1), "-2.5");
}

}  // namespace
}  // namespace gale::util
