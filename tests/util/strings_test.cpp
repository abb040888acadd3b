#include "util/strings.h"

#include <gtest/gtest.h>

#include <ostream>

namespace goofi {
namespace {

TEST(StringsTest, StripAsciiWhitespace) {
  EXPECT_EQ(StripAsciiWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripAsciiWhitespace(""), "");
  EXPECT_EQ(StripAsciiWhitespace("   "), "");
  EXPECT_EQ(StripAsciiWhitespace("a b"), "a b");
}

TEST(StringsTest, SplitStringKeepsEmptyPieces) {
  EXPECT_EQ(SplitString("a,,b", ','),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(SplitString("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(SplitString("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StringsTest, SplitWhitespaceDropsEmpty) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringsTest, JoinStrings) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
  EXPECT_EQ(JoinStrings({"solo"}, ","), "solo");
}

TEST(StringsTest, CaseHelpers) {
  EXPECT_EQ(AsciiToLower("MiXeD"), "mixed");
  EXPECT_EQ(AsciiToUpper("MiXeD"), "MIXED");
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_FALSE(EqualsIgnoreCase("SELECT", "selec"));
  EXPECT_TRUE(StartsWith("cpu.regs.r3", "cpu.regs."));
  EXPECT_FALSE(StartsWith("cpu", "cpu.regs."));
  EXPECT_TRUE(EndsWith("file.schema", ".schema"));
}

TEST(StringsTest, ParseInt64) {
  EXPECT_EQ(ParseInt64("42"), 42);
  EXPECT_EQ(ParseInt64("-42"), -42);
  EXPECT_EQ(ParseInt64("0x1F"), 31);
  EXPECT_EQ(ParseInt64(" 7 "), 7);
  EXPECT_EQ(ParseInt64("9223372036854775807"), 9223372036854775807LL);
  EXPECT_FALSE(ParseInt64("9223372036854775808").has_value());
  EXPECT_FALSE(ParseInt64("").has_value());
  EXPECT_FALSE(ParseInt64("12x").has_value());
  EXPECT_FALSE(ParseInt64("--3").has_value());
}

TEST(StringsTest, ParseInt64Min) {
  EXPECT_EQ(ParseInt64("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_FALSE(ParseInt64("-9223372036854775809").has_value());
}

TEST(StringsTest, ParseUint64) {
  EXPECT_EQ(ParseUint64("0xffffffffffffffff"), ~std::uint64_t{0});
  EXPECT_FALSE(ParseUint64("0x").has_value());
  EXPECT_FALSE(ParseUint64("-1").has_value());
  EXPECT_FALSE(ParseUint64("18446744073709551616").has_value());  // overflow
}

TEST(StringsTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-2e3"), -2000.0);
  EXPECT_FALSE(ParseDouble("3.5x").has_value());
  EXPECT_FALSE(ParseDouble("").has_value());
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%08x", 0xBEEF), "0000beef");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

struct WildcardCase {
  const char* pattern;
  const char* text;
  bool glob_match;
};

// Names each case in test listings. gtest's default printer dumps the
// struct's raw bytes, pointers included, so the listed names would change
// from build to build.
void PrintTo(const WildcardCase& c, std::ostream* os) {
  *os << "glob " << c.pattern << " vs " << (*c.text ? c.text : "<empty>")
      << (c.glob_match ? " matches" : " does not match");
}

class GlobMatchTest : public ::testing::TestWithParam<WildcardCase> {};

TEST_P(GlobMatchTest, Matches) {
  const WildcardCase& c = GetParam();
  EXPECT_EQ(GlobMatch(c.pattern, c.text), c.glob_match)
      << c.pattern << " vs " << c.text;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GlobMatchTest,
    ::testing::Values(
        WildcardCase{"*", "", true}, WildcardCase{"*", "anything", true},
        WildcardCase{"cpu.regs.*", "cpu.regs.r3", true},
        WildcardCase{"cpu.regs.*", "cpu.pc", false},
        WildcardCase{"*.data?", "icache.line3.data2", true},
        WildcardCase{"?", "", false}, WildcardCase{"?", "a", true},
        WildcardCase{"a*b*c", "axxbyyc", true},
        WildcardCase{"a*b*c", "axxbyy", false},
        WildcardCase{"exact", "exact", true},
        WildcardCase{"exact", "exac", false},
        WildcardCase{"**", "x", true},
        WildcardCase{"mem@0x*", "mem@0x00010004", true}));

TEST(StringsTest, LikeMatchUsesSqlWildcards) {
  EXPECT_TRUE(LikeMatch("camp%", "campaign1"));
  EXPECT_TRUE(LikeMatch("%reference", "quickstart/reference"));
  EXPECT_TRUE(LikeMatch("exp___", "exp001"));
  EXPECT_FALSE(LikeMatch("exp___", "exp0001"));
  EXPECT_FALSE(LikeMatch("camp%", "scamp"));
}

TEST(StringsTest, TsvEscapeRoundTrip) {
  const std::string nasty = "a\tb\nc\rd\\e";
  const std::string escaped = EscapeTsvField(nasty);
  EXPECT_EQ(escaped.find('\t'), std::string::npos);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  EXPECT_EQ(UnescapeTsvField(escaped), nasty);
}

TEST(StringsTest, TsvUnescapeRejectsMalformed) {
  EXPECT_FALSE(UnescapeTsvField("trailing\\").has_value());
  EXPECT_FALSE(UnescapeTsvField("bad\\q").has_value());
}

TEST(StringsTest, HexRoundTrip) {
  const std::string bytes("\x00\xff\x10 abc", 7);
  EXPECT_EQ(HexDecode(HexEncode(bytes)), bytes);
  EXPECT_EQ(HexEncode("\xAB"), "ab");
  EXPECT_FALSE(HexDecode("abc").has_value());   // odd length
  EXPECT_FALSE(HexDecode("zz").has_value());
}

}  // namespace
}  // namespace goofi
