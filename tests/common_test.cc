#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "kanon/common/flags.h"
#include "kanon/common/json_text.h"
#include "kanon/common/result.h"
#include "kanon/common/rng.h"
#include "kanon/common/status.h"
#include "kanon/common/table_printer.h"
#include "kanon/common/text.h"

namespace kanon {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "Ok");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIOError), "IOError");
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
  EXPECT_EQ(*r, 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

Result<int> Doubled(int x) {
  KANON_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return 2 * v;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Doubled(4).value(), 8);
  EXPECT_FALSE(Doubled(0).ok());
}

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, ForkIsOrderIndependent) {
  // Fork() is a pure function of the construction seed and the label, so a
  // fork taken after consuming half the parent stream equals one taken
  // fresh — the property that makes parallel campaign trials reproducible.
  Rng fresh(99);
  Rng consumed(99);
  for (int i = 0; i < 57; ++i) consumed.Next();
  for (uint64_t label : {0ull, 1ull, 41ull}) {
    Rng a = fresh.Fork(label);
    Rng b = consumed.Fork(label);
    for (int i = 0; i < 20; ++i) {
      ASSERT_EQ(a.Next(), b.Next()) << "label " << label;
    }
  }
}

TEST(RngTest, ForkStreamsArePinned) {
  // The exact substream values are part of the reproducibility contract:
  // changing the fork mixing silently invalidates every committed .repro
  // file and golden campaign report, so the first draws are pinned here.
  Rng root(4);
  Rng f0 = root.Fork(uint64_t{0});
  Rng f1 = root.Fork(uint64_t{1});
  Rng fs = root.Fork(std::string_view("dataset"));
  EXPECT_EQ(f0.Next(), 8388575972448135660ull);
  EXPECT_EQ(f0.Next(), 6945882310642657730ull);
  EXPECT_EQ(f1.Next(), 17690394864675498621ull);
  EXPECT_EQ(f1.Next(), 8222909351033827423ull);
  EXPECT_EQ(fs.Next(), 12876891699169253028ull);
  EXPECT_EQ(fs.Next(), 590018770497310067ull);
}

TEST(RngTest, ForkOfForkDiffersFromSiblings) {
  Rng root(7);
  Rng a = root.Fork(uint64_t{1});
  Rng ab = a.Fork(uint64_t{2});
  Rng b = root.Fork(uint64_t{2});
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (ab.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(10), 10u);
  }
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Rng rng(123);
  std::vector<int> counts(8, 0);
  const int trials = 80000;
  for (int i = 0; i < trials; ++i) {
    ++counts[rng.NextBounded(8)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, trials / 8, trials / 8 * 0.1);
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(11);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, WeightedRespectsZeroWeights) {
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    size_t pick = rng.NextWeighted({0.0, 1.0, 0.0});
    EXPECT_EQ(pick, 1u);
  }
}

TEST(AliasSamplerTest, MatchesWeights) {
  Rng rng(17);
  AliasSampler sampler({0.7, 0.2, 0.1});
  std::vector<int> counts(3, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    ++counts[sampler.Sample(&rng)];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(trials), 0.7, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(trials), 0.2, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(trials), 0.1, 0.02);
}

TEST(AliasSamplerTest, SingleCategory) {
  Rng rng(19);
  AliasSampler sampler({3.0});
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(sampler.Sample(&rng), 0u);
  }
}

TEST(TextTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", ','), (std::vector<std::string>{"x"}));
  EXPECT_EQ(Split("a,b,", ','), (std::vector<std::string>{"a", "b", ""}));
}

TEST(TextTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("\ta b\n"), "a b");
}

TEST(TextTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(TextTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.654, 2), "0.65");
  EXPECT_EQ(FormatDouble(1.0, 3), "1.000");
}

TEST(FlagParserTest, ParsesForms) {
  const char* argv[] = {"prog", "--k=10", "--name=adult", "--verbose",
                        "positional"};
  FlagParser parser;
  ASSERT_TRUE(parser.Parse(5, argv).ok());
  EXPECT_EQ(parser.GetInt("k", 0), 10);
  EXPECT_EQ(parser.GetString("name", ""), "adult");
  EXPECT_TRUE(parser.GetBool("verbose", false));
  ASSERT_EQ(parser.positional().size(), 1u);
  EXPECT_EQ(parser.positional()[0], "positional");
}

TEST(FlagParserTest, Defaults) {
  const char* argv[] = {"prog"};
  FlagParser parser;
  ASSERT_TRUE(parser.Parse(1, argv).ok());
  EXPECT_EQ(parser.GetInt("k", 5), 5);
  EXPECT_EQ(parser.GetDouble("eps", 0.1), 0.1);
  EXPECT_FALSE(parser.GetBool("verbose", false));
  EXPECT_FALSE(parser.Has("k"));
}

TEST(FlagParserTest, DoubleValues) {
  const char* argv[] = {"prog", "--eps=0.25"};
  FlagParser parser;
  ASSERT_TRUE(parser.Parse(2, argv).ok());
  EXPECT_DOUBLE_EQ(parser.GetDouble("eps", 0.0), 0.25);
}

TEST(FlagParserTest, RejectsBareDashes) {
  const char* argv[] = {"prog", "--"};
  FlagParser parser;
  EXPECT_FALSE(parser.Parse(2, argv).ok());
}

TEST(FlagParserTest, DoubleLists) {
  const char* argv[] = {"prog", "--w=2,1,0.5", "--tiny=1e-320,0"};
  FlagParser parser;
  ASSERT_TRUE(parser.Parse(3, argv).ok());
  const Result<std::vector<double>> w = parser.GetDoubleList("w");
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_EQ(*w, (std::vector<double>{2.0, 1.0, 0.5}));
  // A subnormal is a finite number; whether it is a usable weight is for
  // the caller to decide.
  const Result<std::vector<double>> tiny = parser.GetDoubleList("tiny");
  ASSERT_TRUE(tiny.ok()) << tiny.status().ToString();
  ASSERT_EQ(tiny->size(), 2u);
  EXPECT_GT((*tiny)[0], 0.0);
  const Result<std::vector<double>> absent = parser.GetDoubleList("absent");
  ASSERT_TRUE(absent.ok());
  EXPECT_TRUE(absent->empty());
}

TEST(FlagParserTest, DoubleListRejectsNonNumbersAndOverflow) {
  for (const char* bad :
       {"--w=a", "--w=1,a", "--w=1e999", "--w=-1e999", "--w=nan", "--w=inf",
        "--w=1,,2", "--w=2x", "--w=", "--w=,"}) {
    const char* argv[] = {"prog", bad};
    FlagParser parser;
    ASSERT_TRUE(parser.Parse(2, argv).ok());
    const Result<std::vector<double>> list = parser.GetDoubleList("w");
    ASSERT_FALSE(list.ok()) << bad;
    EXPECT_EQ(list.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(list.status().message().find("--w"), std::string::npos)
        << list.status().ToString();
  }
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t;
  t.SetHeader({"k", "loss"});
  t.AddRow({"5", "0.65"});
  t.AddRow({"10", "0.98"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("k   loss"), std::string::npos);
  EXPECT_NE(out.find("5   0.65"), std::string::npos);
  EXPECT_NE(out.find("10  0.98"), std::string::npos);
}

TEST(TablePrinterTest, SeparatorAndShortRows) {
  TablePrinter t;
  t.SetHeader({"a", "b", "c"});
  t.AddRow({"1"});
  t.AddSeparator();
  t.AddRow({"2", "3", "4"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_NE(out.find("2  3  4"), std::string::npos);
}

TEST(TablePrinterTest, EmptyIsEmpty) {
  TablePrinter t;
  EXPECT_EQ(t.ToString(), "");
}

// The shared JSON encoder, checked against literal bytes rather than a
// parser: every writer's output rests on these two functions.
TEST(JsonTextTest, StringEscapes) {
  std::string out;
  AppendJsonString(&out, "");
  EXPECT_EQ(out, "\"\"");
  out = "x=";
  AppendJsonString(&out, "a\"b\\c/d");
  EXPECT_EQ(out, "x=\"a\\\"b\\\\c/d\"");
  out.clear();
  AppendJsonString(&out, "\b\f\n\r\t");
  EXPECT_EQ(out, "\"\\b\\f\\n\\r\\t\"");
  out.clear();
  AppendJsonString(&out, std::string_view("\x00\x01\x1f\x20", 4));
  EXPECT_EQ(out, "\"\\u0000\\u0001\\u001f \"");
  out.clear();
  AppendJsonString(&out, "caf\xc3\xa9 \x7f");  // UTF-8 and DEL pass through.
  EXPECT_EQ(out, "\"caf\xc3\xa9 \x7f\"");
}

TEST(JsonTextTest, NumberRule) {
  const struct {
    double value;
    const char* text;
  } cases[] = {
      {0.0, "0"},
      {-0.0, "0"},
      {3.0, "3"},
      {-42.0, "-42"},
      {999999999999999.0, "999999999999999"},
      {1e15, "1000000000000000"},
      {1e16, "10000000000000000"},
      {1e17, "1e+17"},
      {0.1, "0.10000000000000001"},
      {6.25, "6.25"},
      {-2.5e-7, "-2.4999999999999999e-07"},
      {1e300, "1.0000000000000001e+300"},
      {-1e300, "-1.0000000000000001e+300"},
      {std::nan(""), "null"},
      {INFINITY, "null"},
      {-INFINITY, "null"},
  };
  for (const auto& c : cases) {
    std::string out;
    AppendJsonNumber(&out, c.value);
    EXPECT_EQ(out, c.text) << c.value;
  }
}

}  // namespace
}  // namespace kanon
