// Tests for lsh/params.h: probability formulas and the paper's k rule.

#include "lsh/params.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace hybridlsh {
namespace lsh {
namespace {

TEST(GaussianCollisionTest, ZeroDistanceIsCertain) {
  EXPECT_DOUBLE_EQ(GaussianCollisionProbability(0.0, 4.0), 1.0);
}

TEST(GaussianCollisionTest, MonotoneDecreasingInDistance) {
  double prev = 1.0;
  for (double r = 0.5; r < 20; r += 0.5) {
    const double p = GaussianCollisionProbability(r, 4.0);
    EXPECT_LT(p, prev) << "r=" << r;
    EXPECT_GT(p, 0.0);
    prev = p;
  }
}

TEST(GaussianCollisionTest, MonotoneIncreasingInWindow) {
  double prev = 0.0;
  for (double w = 1; w < 32; w *= 2) {
    const double p = GaussianCollisionProbability(2.0, w);
    EXPECT_GT(p, prev) << "w=" << w;
    prev = p;
  }
}

TEST(GaussianCollisionTest, PaperSettingIsUsable) {
  // Paper: w = 2r for L2 with k = 7, delta = 0.1, L = 50. p1 must be a
  // sensible probability.
  const double p1 = GaussianCollisionProbability(1.0, 2.0);
  EXPECT_GT(p1, 0.5);
  EXPECT_LT(p1, 1.0);
}

TEST(CauchyCollisionTest, ZeroDistanceIsCertain) {
  EXPECT_DOUBLE_EQ(CauchyCollisionProbability(0.0, 4.0), 1.0);
}

TEST(CauchyCollisionTest, MonotoneDecreasingInDistance) {
  double prev = 1.0;
  for (double r = 0.5; r < 20; r += 0.5) {
    const double p = CauchyCollisionProbability(r, 4.0);
    EXPECT_LT(p, prev);
    EXPECT_GT(p, 0.0);
    prev = p;
  }
}

TEST(CauchyCollisionTest, PaperSettingIsUsable) {
  // Paper: w = 4r for L1 with k = 8.
  const double p1 = CauchyCollisionProbability(1.0, 4.0);
  EXPECT_GT(p1, 0.5);
  EXPECT_LT(p1, 1.0);
}

TEST(SimHashCollisionTest, KnownAngles) {
  // Identical direction: p = 1. Orthogonal: p = 0.5. Opposite: p = 0.
  EXPECT_NEAR(SimHashCollisionProbability(0.0), 1.0, 1e-12);
  EXPECT_NEAR(SimHashCollisionProbability(1.0), 0.5, 1e-12);
  EXPECT_NEAR(SimHashCollisionProbability(2.0), 0.0, 1e-12);
}

TEST(SimHashCollisionTest, MonotoneDecreasing) {
  double prev = 1.1;
  for (double s = 0; s <= 2.0; s += 0.1) {
    const double p = SimHashCollisionProbability(s);
    EXPECT_LT(p, prev);
    prev = p;
  }
}

TEST(BitSamplingCollisionTest, LinearInDistance) {
  EXPECT_DOUBLE_EQ(BitSamplingCollisionProbability(0, 64), 1.0);
  EXPECT_DOUBLE_EQ(BitSamplingCollisionProbability(16, 64), 0.75);
  EXPECT_DOUBLE_EQ(BitSamplingCollisionProbability(64, 64), 0.0);
  EXPECT_DOUBLE_EQ(BitSamplingCollisionProbability(100, 64), 0.0);  // clamped
}

TEST(MinHashCollisionTest, OneMinusJaccard) {
  EXPECT_DOUBLE_EQ(MinHashCollisionProbability(0.0), 1.0);
  EXPECT_DOUBLE_EQ(MinHashCollisionProbability(0.3), 0.7);
  EXPECT_DOUBLE_EQ(MinHashCollisionProbability(1.0), 0.0);
}

TEST(AutoKTest, RejectsBadInputs) {
  EXPECT_FALSE(AutoK(0.9, 0, 0.1).ok());
  EXPECT_FALSE(AutoK(0.9, 50, 0.0).ok());
  EXPECT_FALSE(AutoK(0.9, 50, 1.0).ok());
  EXPECT_FALSE(AutoK(0.0, 50, 0.1).ok());
  EXPECT_FALSE(AutoK(-0.5, 50, 0.1).ok());
  // NaN fails every range check instead of reaching the int cast.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(AutoK(nan, 50, 0.1).ok());
  EXPECT_FALSE(AutoK(0.9, 50, nan).ok());
}

TEST(AutoKTest, CertainCollisionGivesKOne) {
  auto k = AutoK(1.0, 50, 0.1);
  ASSERT_TRUE(k.ok());
  EXPECT_EQ(*k, 1);
}

TEST(AutoKTest, MatchesClosedForm) {
  // delta = 0.1, L = 50: target = 1 - 0.1^(1/50) ~ 0.045007.
  // p1 = 0.9: k = ln(0.045007)/ln(0.9) ~ 29.4 -> 30.
  auto k = AutoK(0.9, 50, 0.1);
  ASSERT_TRUE(k.ok());
  const double target = 1.0 - std::pow(0.1, 1.0 / 50.0);
  EXPECT_EQ(*k, static_cast<int>(std::ceil(std::log(target) / std::log(0.9))));
}

TEST(AutoKTest, IncreasingInP1) {
  // Higher collision probability needs more concatenation to filter.
  int prev = 0;
  for (double p1 : {0.5, 0.7, 0.9, 0.95, 0.99}) {
    auto k = AutoK(p1, 50, 0.1);
    ASSERT_TRUE(k.ok());
    EXPECT_GE(*k, prev) << "p1=" << p1;
    prev = *k;
  }
}

TEST(AutoKTest, AtLeastOne) {
  // Tiny p1 with lenient delta could push the formula below 1.
  auto k = AutoK(0.01, 2, 0.9);
  ASSERT_TRUE(k.ok());
  EXPECT_GE(*k, 1);
}

TEST(RecallLowerBoundTest, FloorKMeetsDelta) {
  // With the un-ceiled k the guarantee holds exactly; so k-1 (<= floor)
  // must meet 1 - delta.
  for (double p1 : {0.6, 0.8, 0.9, 0.95}) {
    for (double delta : {0.05, 0.1, 0.2}) {
      auto k = AutoK(p1, 50, delta);
      ASSERT_TRUE(k.ok());
      const int floor_k = std::max(1, *k - 1);
      EXPECT_GE(RecallLowerBound(floor_k, 50, p1), 1.0 - delta - 1e-9)
          << "p1=" << p1 << " delta=" << delta;
    }
  }
}

TEST(RecallLowerBoundTest, CeiledKIsClose) {
  // The paper's ceil rounding can undershoot 1 - delta, but not by much:
  // p1^ceil(k) >= p1 * p1^k, so the bound stays >= 1-(1-p1*t)^L.
  for (double p1 : {0.6, 0.8, 0.9, 0.95}) {
    auto k = AutoK(p1, 50, 0.1);
    ASSERT_TRUE(k.ok());
    const double bound = RecallLowerBound(*k, 50, p1);
    const double target = 1.0 - std::pow(0.1, 1.0 / 50.0);
    const double worst = 1.0 - std::pow(1.0 - p1 * target, 50);
    EXPECT_GE(bound, worst - 1e-9);
    // The ceil can cost real recall at small p1 (p1 = 0.6 lands at ~0.76 vs
    // the 0.9 target) — a property of the paper's practical setting worth
    // pinning down, not a bug.
    EXPECT_GT(bound, 0.7);
  }
}

TEST(RecallLowerBoundTest, MoreTablesHelp) {
  double prev = 0;
  for (int L : {1, 5, 20, 50, 200}) {
    const double bound = RecallLowerBound(10, L, 0.9);
    EXPECT_GT(bound, prev);
    prev = bound;
  }
}

TEST(RecallLowerBoundTest, Extremes) {
  EXPECT_DOUBLE_EQ(RecallLowerBound(5, 10, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(RecallLowerBound(5, 10, 0.0), 0.0);
}

}  // namespace
}  // namespace lsh
}  // namespace hybridlsh
