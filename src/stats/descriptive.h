// planetmarket: descriptive statistics.
//
// Used throughout the evaluation harness: quantiles and boxplot summaries
// (Figure 7), percentile ranks of cluster utilization (Figure 7 y-axis),
// medians/means of bid premiums (Table I).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace pm::stats {

/// Arithmetic mean. Requires a non-empty input.
double Mean(std::span<const double> xs);

/// Quantile with linear interpolation between order statistics (the "R-7"
/// definition used by R and NumPy). q in [0, 1]. Requires non-empty input.
double Quantile(std::span<const double> xs, double q);

/// Median == Quantile(xs, 0.5).
double Median(std::span<const double> xs);

/// Percentile rank of `value` within `xs` on a 0–100 scale: the fraction of
/// elements strictly below plus half the ties (mid-rank convention). This
/// is the "utilization percentile" of Figure 7: where a cluster's
/// utilization sits relative to all clusters. Requires non-empty xs.
double PercentileRank(std::span<const double> xs, double value);

/// Five-number summary with Tukey outliers: whiskers reach the most extreme
/// points within 1.5·IQR of the box; anything beyond is an outlier.
struct BoxplotSummary {
  double whisker_lo = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double whisker_hi = 0.0;
  std::vector<double> outliers;  // Sorted ascending.
  std::size_t n = 0;
};

/// Computes the Tukey boxplot summary. Requires non-empty input.
BoxplotSummary Boxplot(std::span<const double> xs);

/// Mean absolute deviation from the mean; the dispersion metric used by the
/// reserve-pricing ablation to quantify "shortages and surpluses" of
/// utilization across clusters.
double MeanAbsDeviation(std::span<const double> xs);

}  // namespace pm::stats
