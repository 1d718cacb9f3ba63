// Unit tests for the linkage-rule operator tree: evaluation semantics of
// Definitions 5-8, the Figure 2 example, tree utilities and validation,
// and the column form of every aggregation function.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "model/dataset.h"
#include "rule/aggregation_function.h"
#include "rule/builder.h"
#include "rule/linkage_rule.h"
#include "rule/rule_hash.h"
#include "rule/rule_program.h"

namespace genlink {
namespace {

// Builds the two-dataset fixture used throughout: cities with labels and
// coordinates, represented in two different schemata.
class RuleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_.set_name("source");
    PropertyId a_label = a_.schema().AddProperty("label");
    PropertyId a_point = a_.schema().AddProperty("point");

    b_.set_name("target");
    PropertyId b_label = b_.schema().AddProperty("label");
    PropertyId b_coord = b_.schema().AddProperty("coord");

    Entity berlin_a("a:berlin");
    berlin_a.AddValue(a_label, "Berlin");
    berlin_a.AddValue(a_point, "52.5200 13.4050");
    ASSERT_TRUE(a_.AddEntity(std::move(berlin_a)).ok());

    Entity berlin_b("b:berlin");
    berlin_b.AddValue(b_label, "berlin");  // lower case on this side
    berlin_b.AddValue(b_coord, "52.5201 13.4051");
    ASSERT_TRUE(b_.AddEntity(std::move(berlin_b)).ok());

    Entity paris_b("b:paris");
    paris_b.AddValue(b_label, "paris");
    paris_b.AddValue(b_coord, "48.8566 2.3522");
    ASSERT_TRUE(b_.AddEntity(std::move(paris_b)).ok());
  }

  // The Figure 2 rule: min( levenshtein(lowerCase(label), label) θ=1,
  //                         geographic(point, coord) θ=500m ).
  LinkageRule Figure2Rule() {
    auto rule = RuleBuilder()
                    .Aggregate("min")
                    .Compare("levenshtein", 1.0, Prop("label").Lower(),
                             Prop("label"))
                    .Compare("geographic", 500.0, Prop("point"), Prop("coord"))
                    .End()
                    .Build();
    EXPECT_TRUE(rule.ok()) << rule.status().ToString();
    return std::move(rule).value();
  }

  const Entity& Find(const Dataset& ds, const std::string& id) {
    const Entity* e = ds.FindEntity(id);
    EXPECT_NE(e, nullptr);
    return *e;
  }

  Dataset a_, b_;
};

TEST_F(RuleTest, Figure2ExampleMatchesSameCity) {
  LinkageRule rule = Figure2Rule();
  double score = rule.Evaluate(Find(a_, "a:berlin"), Find(b_, "b:berlin"),
                               a_.schema(), b_.schema());
  // Labels are identical after lowercasing (d=0 -> 1.0); the coordinates
  // are ~13m apart (score ~ 1 - 13/500); min is the geo score.
  EXPECT_GT(score, 0.9);
  EXPECT_LT(score, 1.0);
  EXPECT_TRUE(rule.Matches(Find(a_, "a:berlin"), Find(b_, "b:berlin"),
                           a_.schema(), b_.schema()));
}

TEST_F(RuleTest, Figure2ExampleRejectsDifferentCity) {
  LinkageRule rule = Figure2Rule();
  double score = rule.Evaluate(Find(a_, "a:berlin"), Find(b_, "b:paris"),
                               a_.schema(), b_.schema());
  EXPECT_DOUBLE_EQ(score, 0.0);
}

TEST_F(RuleTest, CaseSensitiveComparisonFailsWithoutTransform) {
  // Without lowerCase, "Berlin" vs "berlin" has levenshtein distance 1:
  // score = 1 - 1/1 = 0 under θ=1.
  auto rule = RuleBuilder()
                  .Compare("levenshtein", 1.0, Prop("label"), Prop("label"))
                  .Build();
  ASSERT_TRUE(rule.ok());
  double score = rule->Evaluate(Find(a_, "a:berlin"), Find(b_, "b:berlin"),
                                a_.schema(), b_.schema());
  EXPECT_DOUBLE_EQ(score, 0.0);
}

TEST_F(RuleTest, MissingPropertyYieldsZero) {
  auto rule = RuleBuilder()
                  .Compare("levenshtein", 2.0, Prop("no_such_prop"), Prop("label"))
                  .Build();
  ASSERT_TRUE(rule.ok());
  EXPECT_DOUBLE_EQ(rule->Evaluate(Find(a_, "a:berlin"), Find(b_, "b:berlin"),
                                  a_.schema(), b_.schema()),
                   0.0);
}

TEST_F(RuleTest, EmptyRuleEvaluatesToZero) {
  LinkageRule empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_DOUBLE_EQ(empty.Evaluate(Find(a_, "a:berlin"), Find(b_, "b:berlin"),
                                  a_.schema(), b_.schema()),
                   0.0);
  EXPECT_EQ(empty.OperatorCount(), 0u);
}

TEST_F(RuleTest, WeightedMeanAggregation) {
  // wmean with weights 3 and 1: (3*s1 + 1*s2) / 4.
  auto rule = RuleBuilder()
                  .Aggregate("wmean")
                  .Compare("levenshtein", 1.0, Prop("label").Lower(), Prop("label"),
                           /*weight=*/3.0)
                  .Compare("levenshtein", 1.0, Prop("label"), Prop("label"),
                           /*weight=*/1.0)
                  .End()
                  .Build();
  ASSERT_TRUE(rule.ok());
  // First comparison scores 1.0 (lowercased match), second scores 0.0
  // (case-sensitive distance 1 with θ=1): wmean = 3/4.
  EXPECT_DOUBLE_EQ(rule->Evaluate(Find(a_, "a:berlin"), Find(b_, "b:berlin"),
                                  a_.schema(), b_.schema()),
                   0.75);
}

TEST_F(RuleTest, MaxAggregationIsDisjunction) {
  auto rule = RuleBuilder()
                  .Aggregate("max")
                  .Compare("levenshtein", 1.0, Prop("label"), Prop("label"))
                  .Compare("geographic", 500.0, Prop("point"), Prop("coord"))
                  .End()
                  .Build();
  ASSERT_TRUE(rule.ok());
  // Label comparison fails (case), geo succeeds: max > 0.9.
  EXPECT_GT(rule->Evaluate(Find(a_, "a:berlin"), Find(b_, "b:berlin"),
                           a_.schema(), b_.schema()),
            0.9);
}

TEST_F(RuleTest, NestedAggregations) {
  auto rule = RuleBuilder()
                  .Aggregate("max")
                  .Aggregate("min")
                  .Compare("levenshtein", 1.0, Prop("label").Lower(), Prop("label"))
                  .Compare("geographic", 500.0, Prop("point"), Prop("coord"))
                  .End()
                  .Compare("levenshtein", 1.0, Prop("label"), Prop("label"))
                  .End()
                  .Build();
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(CollectAggregations(*rule).size(), 2u);
  EXPECT_GT(rule->Evaluate(Find(a_, "a:berlin"), Find(b_, "b:berlin"),
                           a_.schema(), b_.schema()),
            0.9);
}

TEST_F(RuleTest, OperatorCountCountsAllNodes) {
  LinkageRule rule = Figure2Rule();
  // 1 aggregation + 2 comparisons + 1 transform + 4 properties = 8.
  EXPECT_EQ(rule.OperatorCount(), 8u);
}

TEST_F(RuleTest, CloneIsDeepAndEqualHash) {
  LinkageRule rule = Figure2Rule();
  LinkageRule clone = rule.Clone();
  EXPECT_EQ(CanonicalRuleHash(rule), CanonicalRuleHash(clone));
  // Mutating the clone must not affect the original.
  CollectComparisons(clone)[0]->set_threshold(99.0);
  EXPECT_NE(CanonicalRuleHash(rule), CanonicalRuleHash(clone));
  EXPECT_DOUBLE_EQ(CollectComparisons(rule)[0]->threshold(), 1.0);
}

TEST_F(RuleTest, RuleHashDistinguishesFunctionAndShape) {
  auto r1 = RuleBuilder()
                .Compare("levenshtein", 1.0, Prop("label"), Prop("label"))
                .Build();
  auto r2 = RuleBuilder()
                .Compare("jaccard", 1.0, Prop("label"), Prop("label"))
                .Build();
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_NE(CanonicalRuleHash(*r1), CanonicalRuleHash(*r2));
}

TEST_F(RuleTest, CollectorsFindAllNodes) {
  LinkageRule rule = Figure2Rule();
  EXPECT_EQ(CollectComparisons(rule).size(), 2u);
  EXPECT_EQ(CollectAggregations(rule).size(), 1u);
  EXPECT_EQ(CollectTransforms(rule).size(), 1u);
  EXPECT_EQ(CollectSimilaritySlots(rule).size(), 3u);  // root + 2 comparisons
  EXPECT_EQ(CollectValueSlots(rule).size(), 5u);       // 4 props + 1 transform
  EXPECT_EQ(CollectTransformSlots(rule).size(), 1u);
}

TEST_F(RuleTest, ValidateAcceptsWellFormed) {
  EXPECT_TRUE(Figure2Rule().Validate().ok());
}

TEST_F(RuleTest, ValidateRejectsEmptyAggregation) {
  auto agg = std::make_unique<AggregationOperator>(
      AggregationRegistry::Default().Find("min"),
      std::vector<std::unique_ptr<SimilarityOperator>>{});
  LinkageRule rule(std::move(agg));
  EXPECT_FALSE(rule.Validate().ok());
}

TEST_F(RuleTest, ValidateRejectsNegativeThresholdAndBadWeight) {
  auto rule = RuleBuilder()
                  .Compare("levenshtein", 1.0, Prop("label"), Prop("label"))
                  .Build();
  ASSERT_TRUE(rule.ok());
  ComparisonOperator& comparison = *CollectComparisons(*rule)[0];
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double threshold : {-1.0, nan, inf, -inf}) {
    comparison.set_threshold(threshold);
    EXPECT_FALSE(rule->Validate().ok()) << threshold;
  }
  comparison.set_threshold(1.0);
  for (double weight : {0.0, -1.0, nan, inf}) {
    comparison.set_weight(weight);
    EXPECT_FALSE(rule->Validate().ok()) << weight;
  }
  comparison.set_weight(1.0);
  EXPECT_TRUE(rule->Validate().ok());
}

TEST_F(RuleTest, BuilderReportsUnknownNames) {
  auto bad_measure = RuleBuilder()
                         .Compare("nope", 1.0, Prop("x"), Prop("y"))
                         .Build();
  EXPECT_FALSE(bad_measure.ok());
  EXPECT_EQ(bad_measure.status().code(), StatusCode::kNotFound);

  auto bad_transform =
      RuleBuilder()
          .Compare("levenshtein", 1.0, Prop("x").Transform("nope"), Prop("y"))
          .Build();
  EXPECT_FALSE(bad_transform.ok());
}

TEST_F(RuleTest, BuilderRejectsUnclosedAggregation) {
  auto rule = RuleBuilder()
                  .Aggregate("min")
                  .Compare("levenshtein", 1.0, Prop("x"), Prop("y"))
                  .Build();  // missing End()
  EXPECT_FALSE(rule.ok());
  EXPECT_EQ(rule.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(RuleTest, ConcatenateJoinsTwoProperties) {
  // Match "first last" against a concatenation of two properties.
  Dataset people("people");
  PropertyId first = people.schema().AddProperty("firstName");
  PropertyId last = people.schema().AddProperty("lastName");
  Entity p("p1");
  p.AddValue(first, "john");
  p.AddValue(last, "smith");
  ASSERT_TRUE(people.AddEntity(std::move(p)).ok());

  Dataset persons("persons");
  PropertyId name = persons.schema().AddProperty("name");
  Entity q("q1");
  q.AddValue(name, "john smith");
  ASSERT_TRUE(persons.AddEntity(std::move(q)).ok());

  auto rule = RuleBuilder()
                  .Compare("levenshtein", 1.0,
                           Prop("firstName").Concat(Prop("lastName")),
                           Prop("name"))
                  .Build();
  ASSERT_TRUE(rule.ok());
  EXPECT_DOUBLE_EQ(rule->Evaluate(*people.FindEntity("p1"), *persons.FindEntity("q1"),
                                  people.schema(), persons.schema()),
                   1.0);
}

// ------------------------------------------------ aggregation columns

// The same bit pattern, or both NaN. Which NaN payload survives when two
// NaNs meet depends on operand position, and a compiler may commute a
// sum's operands, so payloads are outside the bit-identity contract.
bool SameDouble(double x, double y) {
  return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y) ||
         (std::isnan(x) && std::isnan(y));
}

TEST(AggregationColumnsTest, EveryFunctionMatchesAggregateElementByElement) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  // Thresholded scores, signed zeros, and values no site produces.
  const std::vector<double> values = {
      0.0, -0.0, 1.0, 0.5, 0.25, 1.0 / 3.0, 0.7, 1e-300,
      kInf, -kInf, kNaN, -2.5, 7.0};
  // Zero and negative weights, weight sums <= 0, arity 1, and arity
  // above the rule program's inline stack.
  std::vector<std::vector<double>> weight_sets = {
      {1.0}, {3.0}, {0.0}, {-1.0},
      {1.0, 1.0}, {2.0, 0.5}, {0.0, 3.0}, {-1.0, 4.0},
      {1.0, -1.0}, {-2.0, 1.0}, {0.0, 0.0},
      {3.0, 0.5, 7.25, 1e-3, 13.0},
      {kInf, 1.0, 2.0}, {-kInf, kInf}, {kNaN, 1.0}};
  std::vector<double> wide;
  for (size_t k = 0; k < RuleProgram::kInlineStack + 9; ++k) {
    wide.push_back(k % 5 == 0 ? 0.0 : k % 7 == 0 ? -0.5 : 0.25 * k);
  }
  weight_sets.push_back(wide);

  // Every pair of values in the first two operands (element i holds
  // values i % V and i / V there); later operands draw at random.
  const size_t n = values.size() * values.size();
  Rng rng(17);
  for (const AggregationFunction* function :
       AggregationRegistry::Default().functions()) {
    for (const std::vector<double>& weights : weight_sets) {
      const size_t arity = weights.size();
      std::vector<std::vector<double>> columns(arity, std::vector<double>(n));
      for (size_t k = 0; k < arity; ++k) {
        for (size_t i = 0; i < n; ++i) {
          columns[k][i] = k == 0   ? values[i % values.size()]
                          : k == 1 ? values[i / values.size()]
                                   : values[rng.PickIndex(values.size())];
        }
      }
      std::vector<const double*> operands;
      for (const std::vector<double>& column : columns) {
        operands.push_back(column.data());
      }
      std::vector<double> out(n);
      function->AggregateColumns(operands, weights, n, out.data());
      // The engine writes an aggregation's result over its first
      // operand.
      std::vector<double> aliased = columns[0];
      operands[0] = aliased.data();
      function->AggregateColumns(operands, weights, n, aliased.data());

      std::vector<double> scores(arity);
      for (size_t i = 0; i < n; ++i) {
        for (size_t k = 0; k < arity; ++k) scores[k] = columns[k][i];
        const double want = function->Aggregate(scores, weights);
        const std::string label = std::string(function->name()) + " arity " +
                                  std::to_string(arity) + " element " +
                                  std::to_string(i);
        EXPECT_TRUE(SameDouble(out[i], want))
            << label << ": " << out[i] << " vs " << want;
        EXPECT_TRUE(SameDouble(aliased[i], want))
            << label << " (aliased): " << aliased[i] << " vs " << want;
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace genlink
