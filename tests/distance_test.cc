// Unit and property tests for the distance measure library.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "datasets/noise.h"
#include "distance/numeric_distances.h"
#include "distance/registry.h"
#include "distance/string_distances.h"
#include "distance/token_distances.h"

namespace genlink {
namespace {

// ------------------------------------------------------------ Levenshtein

TEST(LevenshteinTest, KnownValues) {
  EXPECT_EQ(LevenshteinEditDistance("kitten", "sitting"), 3);
  EXPECT_EQ(LevenshteinEditDistance("flaw", "lawn"), 2);
  EXPECT_EQ(LevenshteinEditDistance("", "abc"), 3);
  EXPECT_EQ(LevenshteinEditDistance("abc", ""), 3);
  EXPECT_EQ(LevenshteinEditDistance("same", "same"), 0);
}

TEST(LevenshteinTest, SetLiftTakesMinimum) {
  LevenshteinDistance lev;
  EXPECT_DOUBLE_EQ(lev.Distance({"aaa", "abc"}, {"abd"}), 1.0);
  EXPECT_TRUE(std::isinf(lev.Distance({}, {"x"})));
  EXPECT_TRUE(std::isinf(lev.Distance({"x"}, {})));
}

// -------------------------------------------------------------- Jaro (+W)

TEST(JaroTest, KnownValues) {
  EXPECT_NEAR(JaroSimilarity("martha", "marhta"), 0.9444, 1e-3);
  EXPECT_NEAR(JaroSimilarity("dixon", "dicksonx"), 0.7667, 1e-3);
  EXPECT_DOUBLE_EQ(JaroSimilarity("same", "same"), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "xyz"), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("a", ""), 0.0);
}

TEST(JaroWinklerTest, PrefixBoost) {
  JaroDistance jaro;
  JaroWinklerDistance jw;
  // Shared prefix "mar" means Jaro-Winkler is at least as similar.
  EXPECT_LE(jw.ValueDistance("martha", "marhta"),
            jaro.ValueDistance("martha", "marhta"));
  EXPECT_DOUBLE_EQ(jw.ValueDistance("x", "x"), 0.0);
}

// ----------------------------------------------------------------- tokens

TEST(JaccardTest, KnownValues) {
  JaccardDistance jaccard;
  EXPECT_DOUBLE_EQ(jaccard.Distance({"a", "b"}, {"b", "c"}), 1.0 - 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(jaccard.Distance({"a"}, {"a"}), 0.0);
  EXPECT_DOUBLE_EQ(jaccard.Distance({"a"}, {"b"}), 1.0);
  // Duplicates collapse to set semantics.
  EXPECT_DOUBLE_EQ(jaccard.Distance({"a", "a"}, {"a"}), 0.0);
}

TEST(DiceTest, KnownValues) {
  DiceDistance dice;
  EXPECT_DOUBLE_EQ(dice.Distance({"a", "b"}, {"b", "c"}), 0.5);
  EXPECT_DOUBLE_EQ(dice.Distance({"a"}, {"a"}), 0.0);
}

TEST(CosineTest, KnownValues) {
  CosineDistance cosine;
  EXPECT_NEAR(cosine.Distance({"a"}, {"a"}), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(cosine.Distance({"a"}, {"b"}), 1.0);
  // Orthogonal halves: cos = 0.5.
  EXPECT_NEAR(cosine.Distance({"a", "b"}, {"b", "c"}), 0.5, 1e-12);
}

// ---------------------------------------------------------------- numeric

TEST(NumericTest, AbsoluteDifference) {
  NumericDistance num;
  EXPECT_DOUBLE_EQ(num.ValueDistance("3", "5"), 2.0);
  EXPECT_DOUBLE_EQ(num.ValueDistance("-1.5", "1.5"), 3.0);
  EXPECT_TRUE(std::isinf(num.ValueDistance("abc", "1")));
}

TEST(GeoTest, ParsesFormats) {
  auto p1 = ParseGeoPoint("52.52 13.405");
  ASSERT_TRUE(p1.has_value());
  EXPECT_DOUBLE_EQ(p1->lat, 52.52);
  EXPECT_DOUBLE_EQ(p1->lon, 13.405);

  auto p2 = ParseGeoPoint("52.52,13.405");
  ASSERT_TRUE(p2.has_value());
  EXPECT_DOUBLE_EQ(p2->lon, 13.405);

  auto p3 = ParseGeoPoint("POINT(13.405 52.52)");  // WKT is lon lat
  ASSERT_TRUE(p3.has_value());
  EXPECT_DOUBLE_EQ(p3->lat, 52.52);
  EXPECT_DOUBLE_EQ(p3->lon, 13.405);

  EXPECT_FALSE(ParseGeoPoint("not a point").has_value());
  EXPECT_FALSE(ParseGeoPoint("999 999").has_value());  // out of range
}

TEST(GeoTest, HaversineBerlinParis) {
  // Berlin -> Paris is ~878 km.
  GeoPoint berlin{52.52, 13.405};
  GeoPoint paris{48.8566, 2.3522};
  EXPECT_NEAR(HaversineMeters(berlin, paris), 878000, 10000);
  EXPECT_DOUBLE_EQ(HaversineMeters(berlin, berlin), 0.0);
}

TEST(DateTest, DaysFromCivil) {
  EXPECT_EQ(DaysFromCivil(1970, 1, 1), 0);
  EXPECT_EQ(DaysFromCivil(1970, 1, 2), 1);
  EXPECT_EQ(DaysFromCivil(1969, 12, 31), -1);
  EXPECT_EQ(DaysFromCivil(2000, 3, 1), 11017);
}

TEST(DateTest, ParseAndDistance) {
  DateDistance date;
  EXPECT_DOUBLE_EQ(date.ValueDistance("2000-01-01", "2000-01-11"), 10.0);
  EXPECT_DOUBLE_EQ(date.ValueDistance("1999", "2000"), 365.0);
  EXPECT_DOUBLE_EQ(date.ValueDistance("2000-01-01T12:00:00", "2000-01-02"), 1.0);
  EXPECT_TRUE(std::isinf(date.ValueDistance("not-a-date", "2000-01-01")));
  EXPECT_TRUE(std::isinf(date.ValueDistance("2000-13-01", "2000-01-01")));
}

// --------------------------------------------------------------- registry

TEST(RegistryTest, AllTable2MeasuresPresent) {
  const auto& reg = DistanceRegistry::Default();
  for (const char* name :
       {"levenshtein", "jaccard", "numeric", "geographic", "date"}) {
    EXPECT_NE(reg.Find(name), nullptr) << name;
  }
  EXPECT_EQ(reg.Find("nope"), nullptr);
  EXPECT_GE(reg.measures().size(), 10u);
}

// -------------------------------------------------------- ThresholdedScore

TEST(ThresholdedScoreTest, Definition7Semantics) {
  EXPECT_DOUBLE_EQ(ThresholdedScore(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(ThresholdedScore(0.5, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(ThresholdedScore(1.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(ThresholdedScore(1.5, 1.0), 0.0);
  // Degenerate zero threshold: exact match only.
  EXPECT_DOUBLE_EQ(ThresholdedScore(0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(ThresholdedScore(0.1, 0.0), 0.0);
  // Infinite distance is always 0.
  EXPECT_DOUBLE_EQ(ThresholdedScore(kInfiniteDistance, 5.0), 0.0);
}

TEST(ThresholdedScoreTest, ColumnFormIsBitIdentical) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = kInfiniteDistance;
  // Distances at, just beside and far from each threshold, signed
  // zeros, infinities and NaN; thresholds above, at and below 0.
  const std::vector<double> thresholds = {1.0,  0.3,  2.0 / 3.0, 1e-300, 7.5,
                                          inf,  0.0,  -0.0,      -1.5,   nan};
  for (double threshold : thresholds) {
    std::vector<double> distances = {0.0,  -0.0, 0.5,  1.0,  2.0 / 3.0,
                                     1e-300, 3.0, 1e300, inf, -inf,
                                     nan,  -0.25, threshold,
                                     std::nextafter(threshold, inf),
                                     std::nextafter(threshold, -inf)};
    std::vector<double> out(distances.size());
    ThresholdedScores(distances, threshold, out.data());
    // In place: `out` may alias the distances.
    std::vector<double> in_place = distances;
    ThresholdedScores(in_place, threshold, in_place.data());
    for (size_t i = 0; i < distances.size(); ++i) {
      const double want = ThresholdedScore(distances[i], threshold);
      const auto same = [&](double got) {
        return std::bit_cast<uint64_t>(got) == std::bit_cast<uint64_t>(want) ||
               (std::isnan(got) && std::isnan(want));
      };
      EXPECT_TRUE(same(out[i]))
          << "d=" << distances[i] << " t=" << threshold << ": " << out[i]
          << " vs " << want;
      EXPECT_TRUE(same(in_place[i]))
          << "d=" << distances[i] << " t=" << threshold << " in place";
    }
  }
}

// ------------------------------------------------- property tests (TEST_P)

class MeasurePropertyTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MeasurePropertyTest, SymmetricNonNegativeAndZeroOnSelf) {
  const DistanceMeasure* measure = DistanceRegistry::Default().Find(GetParam());
  ASSERT_NE(measure, nullptr);
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    // Random word-ish values; numeric-looking values for numeric/date.
    std::string a = RandomWord(1 + rng.PickIndex(10), rng);
    std::string b = RandomWord(1 + rng.PickIndex(10), rng);
    if (std::string_view(GetParam()) == "numeric") {
      a = std::to_string(rng.UniformInt(0, 1000));
      b = std::to_string(rng.UniformInt(0, 1000));
    } else if (std::string_view(GetParam()) == "date") {
      a = std::to_string(1900 + rng.PickIndex(200));
      b = std::to_string(1900 + rng.PickIndex(200));
    } else if (std::string_view(GetParam()) == "geographic") {
      a = std::to_string(rng.UniformInt(-89, 89)) + " " +
          std::to_string(rng.UniformInt(-179, 179));
      b = std::to_string(rng.UniformInt(-89, 89)) + " " +
          std::to_string(rng.UniformInt(-179, 179));
    }
    double dab = measure->Distance({a}, {b});
    double dba = measure->Distance({b}, {a});
    double daa = measure->Distance({a}, {a});
    EXPECT_DOUBLE_EQ(dab, dba) << GetParam() << " '" << a << "' vs '" << b << "'";
    EXPECT_GE(dab, 0.0);
    EXPECT_DOUBLE_EQ(daa, 0.0) << GetParam() << " '" << a << "'";
  }
}

TEST_P(MeasurePropertyTest, EmptySetsAreInfinitelyDistant) {
  const DistanceMeasure* measure = DistanceRegistry::Default().Find(GetParam());
  ASSERT_NE(measure, nullptr);
  EXPECT_TRUE(std::isinf(measure->Distance({}, {"x"})));
  EXPECT_TRUE(std::isinf(measure->Distance({"x"}, {})));
  EXPECT_TRUE(std::isinf(measure->Distance({}, {})));
}

TEST_P(MeasurePropertyTest, MaxThresholdPositive) {
  const DistanceMeasure* measure = DistanceRegistry::Default().Find(GetParam());
  ASSERT_NE(measure, nullptr);
  EXPECT_GT(measure->MaxThreshold(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllMeasures, MeasurePropertyTest,
                         ::testing::Values("levenshtein", "jaccard", "numeric",
                                           "geographic", "date", "jaro",
                                           "jaroWinkler", "dice", "cosine",
                                           "equality"));

// Normalized measures must stay within [0,1].
class NormalizedMeasureTest : public ::testing::TestWithParam<const char*> {};

TEST_P(NormalizedMeasureTest, DistanceWithinUnitInterval) {
  const DistanceMeasure* measure = DistanceRegistry::Default().Find(GetParam());
  ASSERT_NE(measure, nullptr);
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    ValueSet a, b;
    for (size_t k = 0; k <= rng.PickIndex(3); ++k) {
      a.push_back(RandomWord(1 + rng.PickIndex(8), rng));
    }
    for (size_t k = 0; k <= rng.PickIndex(3); ++k) {
      b.push_back(RandomWord(1 + rng.PickIndex(8), rng));
    }
    double d = measure->Distance(a, b);
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Normalized, NormalizedMeasureTest,
                         ::testing::Values("jaccard", "dice", "cosine", "jaro",
                                           "jaroWinkler", "equality"));

}  // namespace
}  // namespace genlink
