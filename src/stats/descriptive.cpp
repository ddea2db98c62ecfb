#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace pm::stats {
namespace {

std::vector<double> Sorted(std::span<const double> xs) {
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  return v;
}

double QuantileSorted(const std::vector<double>& sorted, double q) {
  PM_CHECK(!sorted.empty());
  PM_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile " << q << " outside [0,1]");
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace

double Mean(std::span<const double> xs) {
  PM_CHECK(!xs.empty());
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double Quantile(std::span<const double> xs, double q) {
  return QuantileSorted(Sorted(xs), q);
}

double Median(std::span<const double> xs) { return Quantile(xs, 0.5); }

double PercentileRank(std::span<const double> xs, double value) {
  PM_CHECK(!xs.empty());
  std::size_t below = 0;
  std::size_t ties = 0;
  for (double x : xs) {
    if (x < value) {
      ++below;
    } else if (x == value) {
      ++ties;
    }
  }
  const double rank = static_cast<double>(below) +
                      0.5 * static_cast<double>(ties);
  return 100.0 * rank / static_cast<double>(xs.size());
}

BoxplotSummary Boxplot(std::span<const double> xs) {
  const std::vector<double> sorted = Sorted(xs);
  BoxplotSummary box;
  box.n = sorted.size();
  box.q1 = QuantileSorted(sorted, 0.25);
  box.median = QuantileSorted(sorted, 0.50);
  box.q3 = QuantileSorted(sorted, 0.75);
  const double iqr = box.q3 - box.q1;
  const double lo_fence = box.q1 - 1.5 * iqr;
  const double hi_fence = box.q3 + 1.5 * iqr;
  box.whisker_lo = box.q3;  // Overwritten below; safe initial values.
  box.whisker_hi = box.q1;
  bool any_inside = false;
  for (double x : sorted) {
    if (x < lo_fence || x > hi_fence) {
      box.outliers.push_back(x);
    } else {
      if (!any_inside) {
        box.whisker_lo = x;
        any_inside = true;
      }
      box.whisker_hi = x;
    }
  }
  if (!any_inside) {
    // Degenerate: everything flagged as outlier (cannot happen with Tukey
    // fences and finite data, but keep the summary well-formed).
    box.whisker_lo = sorted.front();
    box.whisker_hi = sorted.back();
    box.outliers.clear();
  }
  return box;
}

double MeanAbsDeviation(std::span<const double> xs) {
  PM_CHECK(!xs.empty());
  const double m = Mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += std::abs(x - m);
  return acc / static_cast<double>(xs.size());
}

}  // namespace pm::stats
