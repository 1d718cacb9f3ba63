// Round-trip tests for the s-expression rule serialization, including a
// property sweep over randomly generated rules.

#include <gtest/gtest.h>

#include "gp/rule_generator.h"
#include "rule/builder.h"
#include "rule/parse.h"
#include "rule/rule_hash.h"
#include "rule/serialize.h"

namespace genlink {
namespace {

LinkageRule SampleRule() {
  auto rule = RuleBuilder()
                  .Aggregate("min")
                  .Compare("levenshtein", 1.0, Prop("label").Lower(), Prop("label"))
                  .Compare("geographic", 50.0, Prop("point"), Prop("coord"))
                  .End()
                  .Build();
  EXPECT_TRUE(rule.ok());
  return std::move(rule).value();
}

TEST(SerializeTest, RendersAllOperators) {
  std::string sexpr = ToSexpr(SampleRule());
  EXPECT_NE(sexpr.find("(aggregate min"), std::string::npos);
  EXPECT_NE(sexpr.find("(compare levenshtein :t 1"), std::string::npos);
  EXPECT_NE(sexpr.find("(transform lowerCase"), std::string::npos);
  EXPECT_NE(sexpr.find("(property \"label\")"), std::string::npos);
  EXPECT_NE(sexpr.find("(compare geographic :t 50"), std::string::npos);
}

TEST(SerializeTest, PrettyPrintIsMultiLine) {
  std::string pretty = ToPrettySexpr(SampleRule());
  EXPECT_NE(pretty.find('\n'), std::string::npos);
}

TEST(SerializeTest, EmptyRule) {
  EXPECT_EQ(ToSexpr(LinkageRule()), "(empty)");
}

TEST(ParseTest, RoundTripPreservesStructure) {
  LinkageRule original = SampleRule();
  auto reparsed = ParseRule(ToSexpr(original));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(CanonicalRuleHash(original), CanonicalRuleHash(*reparsed));
  EXPECT_EQ(original.OperatorCount(), reparsed->OperatorCount());
}

TEST(ParseTest, PrettyFormRoundTrips) {
  LinkageRule original = SampleRule();
  auto reparsed = ParseRule(ToPrettySexpr(original));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(CanonicalRuleHash(original), CanonicalRuleHash(*reparsed));
}

TEST(ParseTest, QuotedPropertyNamesWithEscapes) {
  auto rule = ParseRule(
      "(compare equality :t 0.5 :w 1 (property \"a \\\"quoted\\\" name\") "
      "(property \"plain\"))");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  auto comparisons = CollectComparisons(*rule);
  ASSERT_EQ(comparisons.size(), 1u);
  EXPECT_EQ(static_cast<const PropertyOperator*>(comparisons[0]->source())->property(),
            "a \"quoted\" name");
}

TEST(ParseTest, ErrorsAreReported) {
  EXPECT_FALSE(ParseRule("").ok());
  EXPECT_FALSE(ParseRule("(compare levenshtein :t 1").ok());            // truncated
  EXPECT_FALSE(ParseRule("(compare nosuch :t 1 :w 1 (property \"a\") "
                         "(property \"b\"))").ok());                    // bad measure
  EXPECT_FALSE(ParseRule("(aggregate min :w 1)").ok());                 // empty agg
  EXPECT_FALSE(ParseRule("(compare levenshtein :t x :w 1 (property \"a\") "
                         "(property \"b\"))").ok());                    // bad number
  EXPECT_FALSE(ParseRule("(frobnicate)").ok());                         // bad head
  // Trailing garbage after a complete rule.
  EXPECT_FALSE(ParseRule("(compare levenshtein :t 1 :w 1 (property \"a\") "
                         "(property \"b\")) extra").ok());
  // Numbers that parse but fail LinkageRule::Validate: a threshold
  // that is NaN, infinite or negative, a weight that is NaN, infinite,
  // zero or negative, on a comparison or an aggregation.
  for (const char* params :
       {":t nan :w 1", ":t inf :w 1", ":t -3 :w 1", ":t -3 :w 0",
        ":t 1 :w nan", ":t 1 :w inf", ":t 1 :w 0", ":t 1 :w -1"}) {
    auto rule = ParseRule(std::string("(compare levenshtein ") + params +
                          " (property \"a\") (property \"b\"))");
    ASSERT_FALSE(rule.ok()) << params;
    EXPECT_EQ(rule.status().code(), StatusCode::kInvalidArgument) << params;
  }
  EXPECT_FALSE(ParseRule("(aggregate max :w nan (compare levenshtein :t 1 "
                         ":w 1 (property \"a\") (property \"b\")))").ok());
}

TEST(ParseTest, TransformArityIsChecked) {
  // concatenate requires two inputs.
  EXPECT_FALSE(ParseRule("(compare levenshtein :t 1 :w 1 "
                         "(transform concatenate (property \"a\")) "
                         "(property \"b\"))").ok());
}

// Property test: every randomly generated rule round-trips through
// serialize -> parse with an identical rule hash.
class SerializeRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(SerializeRoundTripTest, RandomRulesRoundTrip) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  std::vector<CompatiblePair> pairs;
  pairs.push_back({"title", "name", DistanceRegistry::Default().Find("levenshtein"), 3});
  pairs.push_back({"date", "released", DistanceRegistry::Default().Find("date"), 2});
  pairs.push_back({"pos", "coord", DistanceRegistry::Default().Find("geographic"), 1});
  RuleGenerator generator(pairs, {"title", "date", "pos"},
                          {"name", "released", "coord"});
  for (int i = 0; i < 50; ++i) {
    LinkageRule rule = generator.RandomRule(rng);
    ASSERT_TRUE(rule.Validate().ok());
    auto reparsed = ParseRule(ToSexpr(rule));
    ASSERT_TRUE(reparsed.ok())
        << reparsed.status().ToString() << "\n" << ToSexpr(rule);
    EXPECT_EQ(CanonicalRuleHash(rule), CanonicalRuleHash(*reparsed))
        << ToSexpr(rule);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeRoundTripTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace genlink
