// Tests for pm::stats: descriptive statistics, boxplots, histograms,
// regression.
#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "stats/descriptive.h"
#include "stats/histogram.h"
#include "stats/regression.h"

namespace pm::stats {
namespace {

const std::vector<double> kSample = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};

TEST(DescriptiveTest, Mean) { EXPECT_DOUBLE_EQ(Mean(kSample), 5.0); }

TEST(DescriptiveTest, EmptyInputThrows) {
  std::vector<double> empty;
  EXPECT_THROW(Mean(empty), CheckFailure);
  EXPECT_THROW(Quantile(empty, 0.5), CheckFailure);
}

TEST(DescriptiveTest, QuantileEndpoints) {
  EXPECT_EQ(Quantile(kSample, 0.0), 2.0);
  EXPECT_EQ(Quantile(kSample, 1.0), 9.0);
}

TEST(DescriptiveTest, QuantileInterpolatesR7) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  // R-7: pos = q*(n-1); q=0.5 → 1.5 → 2.5.
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0 / 3.0), 2.0);
  EXPECT_DOUBLE_EQ(Median(xs), 2.5);
}

TEST(DescriptiveTest, QuantileSingleElement) {
  const std::vector<double> xs = {42.0};
  EXPECT_EQ(Quantile(xs, 0.25), 42.0);
}

TEST(DescriptiveTest, QuantileOutOfRangeThrows) {
  EXPECT_THROW(Quantile(kSample, -0.1), CheckFailure);
  EXPECT_THROW(Quantile(kSample, 1.1), CheckFailure);
}

TEST(DescriptiveTest, QuantileUnsortedInputIsSortedInternally) {
  const std::vector<double> xs = {9.0, 1.0, 5.0};
  EXPECT_EQ(Median(xs), 5.0);
}

TEST(DescriptiveTest, PercentileRankMidRanksTies) {
  const std::vector<double> xs = {1.0, 2.0, 2.0, 3.0};
  // value 2: below=1, ties=2 → rank = 1+1 = 2 of 4 → 50.
  EXPECT_DOUBLE_EQ(PercentileRank(xs, 2.0), 50.0);
  EXPECT_DOUBLE_EQ(PercentileRank(xs, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(PercentileRank(xs, 10.0), 100.0);
}

TEST(DescriptiveTest, BoxplotQuartilesAndWhiskers) {
  const BoxplotSummary box = Boxplot(kSample);
  EXPECT_DOUBLE_EQ(box.median, 4.5);
  EXPECT_DOUBLE_EQ(box.q1, 4.0);   // R-7 at pos 1.75.
  EXPECT_DOUBLE_EQ(box.q3, 5.5);   // R-7 at pos 5.25.
  EXPECT_EQ(box.n, kSample.size());
  EXPECT_LE(box.whisker_lo, box.q1);
  EXPECT_LE(box.q3, box.whisker_hi);
  // IQR = 1.5 → upper fence 7.75: the 9 is a genuine Tukey outlier.
  ASSERT_EQ(box.outliers.size(), 1u);
  EXPECT_EQ(box.outliers[0], 9.0);
  EXPECT_EQ(box.whisker_hi, 7.0);
  EXPECT_EQ(box.whisker_lo, 2.0);
}

TEST(DescriptiveTest, BoxplotFlagsTukeyOutliers) {
  std::vector<double> xs = {10, 11, 12, 13, 14, 15, 16, 100};
  const BoxplotSummary box = Boxplot(xs);
  ASSERT_EQ(box.outliers.size(), 1u);
  EXPECT_EQ(box.outliers[0], 100.0);
  EXPECT_EQ(box.whisker_hi, 16.0);
}

TEST(DescriptiveTest, BoxplotConstantSample) {
  std::vector<double> xs(5, 3.0);
  const BoxplotSummary box = Boxplot(xs);
  EXPECT_EQ(box.median, 3.0);
  EXPECT_EQ(box.whisker_lo, 3.0);
  EXPECT_EQ(box.whisker_hi, 3.0);
  EXPECT_TRUE(box.outliers.empty());
}

TEST(DescriptiveTest, MeanAbsDeviation) {
  const std::vector<double> xs = {1.0, 3.0};
  EXPECT_DOUBLE_EQ(MeanAbsDeviation(xs), 1.0);
}

// ---------------------------------------------------------------- histogram --

void AddAll(Histogram& h, std::initializer_list<double> values) {
  for (double v : values) h.Add(v);
}

TEST(HistogramTest, BinsValuesCorrectly) {
  Histogram h(0.0, 10.0, 5);
  h.Add(0.0);   // Bin 0.
  h.Add(1.99);  // Bin 0.
  h.Add(2.0);   // Bin 1.
  h.Add(10.0);  // Top edge lands in last bin.
  EXPECT_EQ(h.Count(0), 2u);
  EXPECT_EQ(h.Count(1), 1u);
  EXPECT_EQ(h.Count(4), 1u);
  EXPECT_EQ(h.TotalCount(), 4u);
}

TEST(HistogramTest, TracksOutOfRange) {
  Histogram h(0.0, 1.0, 2);
  h.Add(-5.0);
  h.Add(2.0);
  EXPECT_EQ(h.Underflow(), 1u);
  EXPECT_EQ(h.Overflow(), 1u);
  EXPECT_EQ(h.TotalCount(), 2u);
}

TEST(HistogramTest, BinGeometry) {
  Histogram h(10.0, 20.0, 5);
  EXPECT_DOUBLE_EQ(h.BinLow(0), 10.0);
  EXPECT_DOUBLE_EQ(h.BinCenter(2), 15.0);
}

TEST(HistogramTest, InvalidRangeThrows) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), pm::CheckFailure);
}

TEST(HistogramTest, SumTracksEveryAdd) {
  Histogram h(0.0, 1.0, 2);
  AddAll(h, {0.25, 0.5, 3.0});  // Overflow still counts toward the sum.
  EXPECT_DOUBLE_EQ(h.Sum(), 3.75);
}

TEST(HistogramTest, MergeAddsCountsAndFlows) {
  Histogram a(0.0, 10.0, 5);
  AddAll(a, {1.0, 3.0, -1.0});
  Histogram b(0.0, 10.0, 5);
  AddAll(b, {1.5, 99.0});
  a.Merge(b);
  EXPECT_EQ(a.Count(0), 2u);  // 1.0 and 1.5.
  EXPECT_EQ(a.Count(1), 1u);  // 3.0.
  EXPECT_EQ(a.Underflow(), 1u);
  EXPECT_EQ(a.Overflow(), 1u);
  EXPECT_EQ(a.TotalCount(), 5u);
  EXPECT_DOUBLE_EQ(a.Sum(), 1.0 + 3.0 - 1.0 + 1.5 + 99.0);
}

TEST(HistogramTest, MergeSingleBucket) {
  Histogram a(0.0, 1.0, 1);
  a.Add(0.5);
  Histogram b(0.0, 1.0, 1);
  b.Add(0.25);
  a.Merge(b);
  EXPECT_EQ(a.Count(0), 2u);
  EXPECT_EQ(a.TotalCount(), 2u);
}

TEST(HistogramTest, MergeEmptyIsNoOp) {
  Histogram a(0.0, 1.0, 4);
  a.Add(0.5);
  Histogram b(0.0, 1.0, 4);
  a.Merge(b);
  EXPECT_EQ(a.TotalCount(), 1u);
  EXPECT_DOUBLE_EQ(a.Sum(), 0.5);
}

TEST(HistogramTest, MergeShapeMismatchThrows) {
  Histogram a(0.0, 1.0, 4);
  Histogram bins(0.0, 1.0, 5);
  Histogram range(0.0, 2.0, 4);
  EXPECT_FALSE(a.SameShape(bins));
  EXPECT_FALSE(a.SameShape(range));
  EXPECT_THROW(a.Merge(bins), CheckFailure);
  EXPECT_THROW(a.Merge(range), CheckFailure);
}

TEST(HistogramTest, QuantileEmptyReturnsLo) {
  Histogram h(2.0, 8.0, 3);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 2.0);
}

TEST(HistogramTest, QuantileInterpolatesWithinBin) {
  // 10 samples spread uniformly across one [0, 10) bin of a 1-bin
  // histogram: the median interpolates to the middle of the bin.
  Histogram h(0.0, 10.0, 1);
  for (int i = 0; i < 10; ++i) h.Add(0.5);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 10.0);
}

TEST(HistogramTest, QuantileUnderOverflowClampToRange) {
  Histogram h(0.0, 1.0, 2);
  AddAll(h, {-5.0, 0.25, 9.0});  // One below, one in, one above.
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.0);   // Underflow mass reads lo.
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 1.0);   // Overflow mass reads hi.
}

TEST(HistogramTest, QuantileOrderedAcrossBins) {
  Histogram h(0.0, 10.0, 5);
  AddAll(h, {1.0, 3.0, 5.0, 7.0, 9.0});
  double prev = h.Quantile(0.0);
  for (double q = 0.1; q <= 1.0; q += 0.1) {
    const double cur = h.Quantile(q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
  EXPECT_THROW(h.Quantile(-0.1), CheckFailure);
  EXPECT_THROW(h.Quantile(1.1), CheckFailure);
}

// --------------------------------------------------------------- regression --

/// Half-width of a uniform noise with mean 0 and variance 1.
const double kUnitNoise = std::sqrt(3.0);

TEST(RegressionTest, RecoversExactLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 20; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 + 2.5 * i);
  }
  const LinearFit fit = FitLinear(xs, ys);
  EXPECT_NEAR(fit.slope, 2.5, 1e-12);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(RegressionTest, NoisyLineHasHighR2) {
  RandomStream rng(3);
  std::vector<double> xs, ys;
  for (int i = 0; i < 200; ++i) {
    xs.push_back(i);
    ys.push_back(10.0 + 0.5 * i + rng.Uniform(-kUnitNoise, kUnitNoise));
  }
  const LinearFit fit = FitLinear(xs, ys);
  EXPECT_NEAR(fit.slope, 0.5, 0.05);
  EXPECT_GT(fit.r_squared, 0.99);
}

TEST(RegressionTest, UncorrelatedDataHasLowR2) {
  RandomStream rng(9);
  std::vector<double> xs, ys;
  for (int i = 0; i < 500; ++i) {
    xs.push_back(i);
    ys.push_back(rng.Uniform(-kUnitNoise, kUnitNoise));
  }
  EXPECT_LT(FitLinear(xs, ys).r_squared, 0.05);
}

TEST(RegressionTest, ConstantXThrows) {
  const std::vector<double> xs = {1.0, 1.0};
  const std::vector<double> ys = {2.0, 3.0};
  EXPECT_THROW(FitLinear(xs, ys), pm::CheckFailure);
}

TEST(RegressionTest, ConstantYIsPerfectFit) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const std::vector<double> ys = {4.0, 4.0, 4.0};
  const LinearFit fit = FitLinear(xs, ys);
  EXPECT_NEAR(fit.slope, 0.0, 1e-12);
  EXPECT_EQ(fit.r_squared, 1.0);
}

}  // namespace
}  // namespace pm::stats
