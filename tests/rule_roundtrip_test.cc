// Property/fuzz round-trip layer for rule serialization: thousands of
// randomly generated rules across every RepresentationMode must survive
// sexpr serialize -> parse and XML export -> import with their canonical
// hashes intact, bit for bit. The canonical hash covers every threshold
// and weight double plus the identity of every measure / transformation
// / aggregation instance, so an equal hash means the reparsed rule would
// hit the same engine caches and produce the same scores as the
// original — which is exactly what rule files must guarantee.
//
// Property names deliberately include multi-byte UTF-8 and characters
// the two formats must escape; thresholds are additionally forced to
// edge doubles (0, denormal min, values with no short decimal form,
// huge magnitudes) to exercise the exact round-trip formatter.

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "gp/rule_generator.h"
#include "rule/parse.h"
#include "rule/rule_hash.h"
#include "rule/serialize.h"
#include "rule/xml.h"

namespace genlink {
namespace {

// UTF-8 property names (accents, CJK, combining marks) plus names that
// force escaping in the s-expression ('"', '\') and XML ('&', '<', '>')
// writers.
const std::vector<std::string>& PropertiesA() {
  static const std::vector<std::string> names = {
      "café",  "名前",        "straße",       "ημερομηνία",
      "title", "a \"quoted\"", "amp&ersand",  "less<than>",
  };
  return names;
}

const std::vector<std::string>& PropertiesB() {
  static const std::vector<std::string> names = {
      "пирог", "날짜",  "naïve", "label",
      "back\\slash", "mixed é&<x>", "phone", "type",
  };
  return names;
}

std::vector<CompatiblePair> MakeCompatiblePairs() {
  const auto& registry = DistanceRegistry::Default();
  std::vector<CompatiblePair> pairs;
  const char* measures[] = {"levenshtein", "jaccard", "numeric",
                            "geographic",  "date",    "jaroWinkler",
                            "cosine",      "equality"};
  for (size_t i = 0; i < PropertiesA().size(); ++i) {
    pairs.push_back({PropertiesA()[i], PropertiesB()[i],
                     registry.Find(measures[i % std::size(measures)]),
                     i + 1});
  }
  return pairs;
}

// Round-trips one rule through both formats and checks the rule hash
// bit for bit.
void ExpectRoundTrips(const LinkageRule& rule, const char* context) {
  const uint64_t canonical = CanonicalRuleHash(rule);

  std::string sexpr = ToSexpr(rule);
  auto parsed = ParseRule(sexpr);
  ASSERT_TRUE(parsed.ok()) << context << ": " << parsed.status().ToString()
                           << "\n" << sexpr;
  EXPECT_EQ(CanonicalRuleHash(*parsed), canonical) << context << "\n" << sexpr;

  auto pretty = ParseRule(ToPrettySexpr(rule));
  ASSERT_TRUE(pretty.ok()) << context << ": " << pretty.status().ToString();
  EXPECT_EQ(CanonicalRuleHash(*pretty), canonical) << context;

  std::string xml = ToXml(rule);
  auto imported = ParseRuleXml(xml);
  ASSERT_TRUE(imported.ok()) << context << ": "
                             << imported.status().ToString() << "\n" << xml;
  EXPECT_EQ(CanonicalRuleHash(*imported), canonical) << context << "\n" << xml;
}

TEST(RuleRoundTripTest, RandomRulesAcrossAllModesRoundTripBitIdentically) {
  const RepresentationMode modes[] = {
      RepresentationMode::kBoolean, RepresentationMode::kLinear,
      RepresentationMode::kNonlinear, RepresentationMode::kFull};
  Rng rng(20260730);
  size_t total = 0;
  for (RepresentationMode mode : modes) {
    RuleGeneratorConfig config;
    config.mode = mode;
    RuleGenerator generator(MakeCompatiblePairs(), PropertiesA(),
                            PropertiesB(), config);
    for (int i = 0; i < 300; ++i) {
      LinkageRule rule = generator.RandomRule(rng);
      ExpectRoundTrips(
          rule, std::string(RepresentationModeName(mode)).c_str());
      ++total;
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GE(total, 1000u);
}

TEST(RuleRoundTripTest, ThresholdAndWeightEdgeValuesRoundTrip) {
  // Doubles with no short decimal rendering, denormals, zero and huge
  // magnitudes: FormatDoubleExact must emit a representation that
  // reparses to the identical bit pattern in both formats.
  const double edge_thresholds[] = {
      0.0,
      5e-324,                   // smallest denormal
      2.2250738585072014e-308,  // smallest normal
      0.1,
      0.1 + 0.2,                // 0.30000000000000004
      1.0 / 3.0,
      1e16 + 1,                 // integer not representable in 15 digits
      1.7976931348623157e308,   // max finite double
  };
  Rng rng(7);
  RuleGenerator generator(MakeCompatiblePairs(), PropertiesA(), PropertiesB());
  int checked = 0;
  while (checked < 64) {
    LinkageRule rule = generator.RandomRule(rng);
    auto comparisons = CollectComparisons(rule);
    if (comparisons.empty()) continue;
    for (size_t c = 0; c < comparisons.size(); ++c) {
      comparisons[c]->set_threshold(
          edge_thresholds[(checked + c) % std::size(edge_thresholds)]);
    }
    ExpectRoundTrips(rule, "edge-threshold");
    if (::testing::Test::HasFatalFailure()) return;
    ++checked;
  }
}

TEST(RuleRoundTripTest, UnseededGeneratorUsesRawPropertyLists) {
  // Without compatible pairs the generator draws property pairs
  // uniformly — including every escaped / UTF-8 name combination.
  RuleGeneratorConfig config;
  config.seeded = false;
  RuleGenerator generator({}, PropertiesA(), PropertiesB(), config);
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    ExpectRoundTrips(generator.RandomRule(rng), "unseeded");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace genlink
