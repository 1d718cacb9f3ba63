// Round-trip and error tests for the Silk-style XML rule format.

#include <gtest/gtest.h>

#include "gp/rule_generator.h"
#include "rule/builder.h"
#include "rule/rule_hash.h"
#include "rule/xml.h"

namespace genlink {
namespace {

LinkageRule SampleRule() {
  auto rule = RuleBuilder()
                  .Aggregate("min")
                  .Compare("levenshtein", 1.0, Prop("label").Lower(), Prop("label"))
                  .Compare("geographic", 50.0, Prop("point"), Prop("coord"), 2.0)
                  .End()
                  .Build();
  EXPECT_TRUE(rule.ok());
  return std::move(rule).value();
}

TEST(XmlTest, RendersSilkStructure) {
  std::string xml = ToXml(SampleRule());
  EXPECT_NE(xml.find("<LinkageRule>"), std::string::npos);
  EXPECT_NE(xml.find("<Aggregate type=\"min\""), std::string::npos);
  EXPECT_NE(xml.find("<Compare metric=\"levenshtein\" threshold=\"1\""),
            std::string::npos);
  EXPECT_NE(xml.find("<TransformInput function=\"lowerCase\">"),
            std::string::npos);
  EXPECT_NE(xml.find("<Input path=\"label\"/>"), std::string::npos);
  EXPECT_NE(xml.find("</LinkageRule>"), std::string::npos);
}

TEST(XmlTest, RoundTripPreservesStructure) {
  LinkageRule original = SampleRule();
  auto reparsed = ParseRuleXml(ToXml(original));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(CanonicalRuleHash(original), CanonicalRuleHash(*reparsed));
}

TEST(XmlTest, EscapedAttributeValuesRoundTrip) {
  auto rule = RuleBuilder()
                  .Compare("equality", 0.5, Prop("a<b>&\"c'"), Prop("plain"))
                  .Build();
  ASSERT_TRUE(rule.ok());
  std::string xml = ToXml(*rule);
  auto reparsed = ParseRuleXml(xml);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << xml;
  auto comparisons = CollectComparisons(*reparsed);
  ASSERT_EQ(comparisons.size(), 1u);
  EXPECT_EQ(
      static_cast<const PropertyOperator*>(comparisons[0]->source())->property(),
      "a<b>&\"c'");
}

TEST(XmlTest, AcceptsPrologAndComments) {
  std::string xml =
      "<?xml version=\"1.0\"?>\n"
      "<!-- a linkage rule -->\n"
      "<LinkageRule>\n"
      "  <Compare metric=\"equality\" threshold=\"0.5\" weight=\"1\">\n"
      "    <Input path=\"x\"/>\n"
      "    <Input path=\"y\"/>\n"
      "  </Compare>\n"
      "</LinkageRule>\n";
  auto rule = ParseRuleXml(xml);
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_TRUE(rule->Validate().ok());
}

TEST(XmlTest, MissingWeightDefaultsToOne) {
  std::string xml =
      "<LinkageRule><Compare metric=\"equality\" threshold=\"0.5\">"
      "<Input path=\"x\"/><Input path=\"y\"/></Compare></LinkageRule>";
  auto rule = ParseRuleXml(xml);
  ASSERT_TRUE(rule.ok());
  EXPECT_DOUBLE_EQ(CollectComparisons(*rule)[0]->weight(), 1.0);
}

TEST(XmlTest, ReportsStructuralErrors) {
  // Unknown metric.
  EXPECT_FALSE(ParseRuleXml("<LinkageRule><Compare metric=\"nope\" "
                            "threshold=\"1\"><Input path=\"x\"/><Input "
                            "path=\"y\"/></Compare></LinkageRule>")
                   .ok());
  // Wrong child count.
  EXPECT_FALSE(ParseRuleXml("<LinkageRule><Compare metric=\"equality\" "
                            "threshold=\"1\"><Input "
                            "path=\"x\"/></Compare></LinkageRule>")
                   .ok());
  // Empty aggregation.
  EXPECT_FALSE(
      ParseRuleXml("<LinkageRule><Aggregate type=\"min\"/></LinkageRule>").ok());
  // Mismatched tags.
  EXPECT_FALSE(ParseRuleXml("<LinkageRule><Aggregate type=\"min\">"
                            "</Compare></LinkageRule>")
                   .ok());
  // Wrong root.
  EXPECT_FALSE(ParseRuleXml("<Rule/>").ok());
  // Trailing garbage.
  EXPECT_FALSE(ParseRuleXml("<LinkageRule><Compare metric=\"equality\" "
                            "threshold=\"1\"><Input path=\"x\"/><Input "
                            "path=\"y\"/></Compare></LinkageRule><extra/>")
                   .ok());
  // Malformed attribute.
  EXPECT_FALSE(ParseRuleXml("<LinkageRule><Compare metric=equality "
                            "threshold=\"1\"/></LinkageRule>")
                   .ok());
  // Numbers that parse but fail LinkageRule::Validate: a threshold
  // that is NaN, infinite or negative, a weight that is NaN, infinite,
  // zero or negative, on a comparison or an aggregation.
  for (const char* attributes :
       {"threshold=\"nan\"", "threshold=\"inf\"", "threshold=\"-3\"",
        "threshold=\"-3\" weight=\"0\"", "threshold=\"1\" weight=\"nan\"",
        "threshold=\"1\" weight=\"inf\"", "threshold=\"1\" weight=\"0\"",
        "threshold=\"1\" weight=\"-1\""}) {
    auto rule = ParseRuleXml(std::string("<LinkageRule><Compare "
                                         "metric=\"equality\" ") +
                             attributes +
                             "><Input path=\"x\"/><Input path=\"y\"/>"
                             "</Compare></LinkageRule>");
    ASSERT_FALSE(rule.ok()) << attributes;
    EXPECT_EQ(rule.status().code(), StatusCode::kInvalidArgument)
        << attributes;
  }
  EXPECT_FALSE(ParseRuleXml("<LinkageRule><Aggregate type=\"max\" "
                            "weight=\"nan\"><Compare metric=\"equality\" "
                            "threshold=\"1\"><Input path=\"x\"/><Input "
                            "path=\"y\"/></Compare></Aggregate>"
                            "</LinkageRule>")
                   .ok());
}

// Property test: random rules round-trip through XML with identical
// rule hashes.
class XmlRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(XmlRoundTripTest, RandomRulesRoundTrip) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31337);
  std::vector<CompatiblePair> pairs;
  pairs.push_back({"title", "name", DistanceRegistry::Default().Find("levenshtein"), 3});
  pairs.push_back({"pos", "coord", DistanceRegistry::Default().Find("geographic"), 1});
  RuleGenerator generator(pairs, {"title", "pos"}, {"name", "coord"});
  for (int i = 0; i < 50; ++i) {
    LinkageRule rule = generator.RandomRule(rng);
    auto reparsed = ParseRuleXml(ToXml(rule));
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n"
                               << ToXml(rule);
    EXPECT_EQ(CanonicalRuleHash(rule), CanonicalRuleHash(*reparsed))
        << ToXml(rule);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTripTest, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace genlink
