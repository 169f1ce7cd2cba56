#include "query/selectivity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

#include "common/rng.h"

namespace stcn {
namespace {

SelectivityConfig config() {
  SelectivityConfig c;
  c.world = {{0, 0}, {1600, 1600}};
  c.grid_cols = 16;
  c.grid_rows = 16;
  c.time_bucket = Duration::minutes(1);
  c.time_buckets = 8;
  return c;
}

TimeInterval first_minute() {
  return {TimePoint(0), TimePoint(60'000'000)};
}

TEST(SelectivityEstimator, StartsDark) {
  SelectivityEstimator est(config());
  EXPECT_DOUBLE_EQ(est.coverage(), 0.0);
  EXPECT_DOUBLE_EQ(est.estimate({{0, 0}, {100, 100}}, first_minute()), 0.0);
}

TEST(SelectivityEstimator, LearnsFromFeedback) {
  SelectivityEstimator est(config());
  Rect region{{0, 0}, {100, 100}};  // exactly one grid cell
  est.observe(region, first_minute(), 50);
  EXPECT_GT(est.coverage(), 0.0);
  EXPECT_NEAR(est.estimate(region, first_minute()), 50.0, 1.0);
}

TEST(SelectivityEstimator, EstimateScalesWithRegionFraction) {
  SelectivityEstimator est(config());
  Rect cell{{0, 0}, {100, 100}};
  est.observe(cell, first_minute(), 100);
  // Half the cell → roughly half the estimate.
  Rect half{{0, 0}, {50, 100}};
  EXPECT_NEAR(est.estimate(half, first_minute()), 50.0, 5.0);
}

TEST(SelectivityEstimator, UnlitRegionsUseLitPrior) {
  SelectivityEstimator est(config());
  est.observe({{0, 0}, {100, 100}}, first_minute(), 80);
  // A never-observed cell gets the mean of lit cells as prior.
  double unlit = est.estimate({{800, 800}, {900, 900}}, first_minute());
  EXPECT_NEAR(unlit, 80.0, 8.0);
}

TEST(SelectivityEstimator, RepeatedFeedbackConverges) {
  SelectivityEstimator est(config());
  Rect region{{200, 200}, {300, 300}};
  est.observe(region, first_minute(), 10);  // early noisy observation
  for (int i = 0; i < 30; ++i) {
    est.observe(region, first_minute(), 100);
  }
  EXPECT_NEAR(est.estimate(region, first_minute()), 100.0, 5.0);
}

TEST(SelectivityEstimator, MultiCellQueryDistributesDensity) {
  SelectivityEstimator est(config());
  Rect four_cells{{0, 0}, {200, 200}};
  est.observe(four_cells, first_minute(), 400);
  // Each covered cell learned ~100; a one-cell query estimates ~100.
  EXPECT_NEAR(est.estimate({{0, 0}, {100, 100}}, first_minute()), 100.0,
              10.0);
  EXPECT_NEAR(est.estimate(four_cells, first_minute()), 400.0, 20.0);
}

TEST(SelectivityEstimator, TimeBucketsAreIndependent) {
  SelectivityEstimator est(config());
  TimeInterval minute0{TimePoint(0), TimePoint(60'000'000)};
  TimeInterval minute1{TimePoint(60'000'000), TimePoint(120'000'000)};
  Rect region{{0, 0}, {100, 100}};
  est.observe(region, minute0, 200);
  est.observe(region, minute1, 10);
  EXPECT_GT(est.estimate(region, minute0), est.estimate(region, minute1));
}

TEST(SelectivityEstimator, RegionOutsideWorldIsZero) {
  SelectivityEstimator est(config());
  est.observe({{0, 0}, {100, 100}}, first_minute(), 50);
  EXPECT_DOUBLE_EQ(
      est.estimate({{5000, 5000}, {6000, 6000}}, first_minute()), 0.0);
}

TEST(SelectivityEstimator, RunningPriorMatchesFromScratchRecomputation) {
  // Cell-aligned footprints cover whole buckets (fraction 1), so a plain
  // map of bucket densities reproduces the estimator exactly; its prior is
  // recomputed from scratch over every lit bucket on each check.
  SelectivityEstimator est(config());
  std::map<std::tuple<std::int64_t, int, int>, double> density;
  auto aligned = [](int cx0, int cy0, int cx1, int cy1) {
    return Rect{{cx0 * 100.0, cy0 * 100.0},
                {(cx1 + 1) * 100.0, (cy1 + 1) * 100.0}};
  };
  auto minutes = [](std::int64_t m0, std::int64_t m1) {
    return TimeInterval{TimePoint(m0 * 60'000'000),
                        TimePoint(m1 * 60'000'000)};
  };
  Rng rng(20130708);
  auto draw = [&rng](int lo, int hi) {
    return lo + static_cast<int>(rng.uniform_index(
                    static_cast<std::uint64_t>(hi - lo + 1)));
  };
  for (int i = 0; i < 1000; ++i) {
    int cx0 = draw(0, 15);
    int cy0 = draw(0, 15);
    int cx1 = std::min(15, cx0 + draw(0, 3));
    int cy1 = std::min(15, cy0 + draw(0, 3));
    std::int64_t m0 = draw(0, 7);
    std::int64_t m1 = m0 + draw(1, 2);
    // Counts over five orders of magnitude exercise the running sum's
    // cancellation when a hot bucket cools down.
    auto count = static_cast<std::uint64_t>(
        std::pow(10.0, rng.uniform(0.0, 5.0)));
    est.observe(aligned(cx0, cy0, cx1, cy1), minutes(m0, m1), count);
    double buckets = static_cast<double>((cx1 - cx0 + 1) * (cy1 - cy0 + 1) *
                                         (m1 - m0));
    double per_full_bucket = static_cast<double>(count) / buckets;
    for (std::int64_t m = m0; m < m1; ++m) {
      for (int cy = cy0; cy <= cy1; ++cy) {
        for (int cx = cx0; cx <= cx1; ++cx) {
          auto [it, first] =
              density.try_emplace({m % 8, cy, cx}, per_full_bucket);
          if (!first) it->second = 0.7 * it->second + 0.3 * per_full_bucket;
        }
      }
    }
  }
  double lit_sum = 0.0;
  for (const auto& [key, d] : density) lit_sum += d;
  double prior = lit_sum / static_cast<double>(density.size());
  EXPECT_DOUBLE_EQ(est.coverage(), static_cast<double>(density.size()) /
                                       (16.0 * 16.0 * 8.0));
  for (int q = 0; q < 200; ++q) {
    int cx0 = draw(0, 15);
    int cy0 = draw(0, 15);
    int cx1 = std::min(15, cx0 + draw(0, 5));
    int cy1 = std::min(15, cy0 + draw(0, 5));
    std::int64_t m0 = draw(0, 7);
    std::int64_t m1 = m0 + draw(1, 8 - static_cast<int>(m0));
    double want = 0.0;
    for (std::int64_t m = m0; m < m1; ++m) {
      for (int cy = cy0; cy <= cy1; ++cy) {
        for (int cx = cx0; cx <= cx1; ++cx) {
          auto it = density.find({m % 8, cy, cx});
          want += it == density.end() ? prior : it->second;
        }
      }
    }
    double got = est.estimate(aligned(cx0, cy0, cx1, cy1), minutes(m0, m1));
    EXPECT_NEAR(got, want, 1e-9 * want) << "query " << q;
  }
}

}  // namespace
}  // namespace stcn
