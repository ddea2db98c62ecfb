// planetmarket: fixed-width histograms over a closed range.
#pragma once

#include <cstddef>
#include <vector>

namespace pm::stats {

/// A histogram with `bins` equal-width buckets spanning [lo, hi]. Values
/// outside the range are counted in under/overflow.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void Add(double value);

  std::size_t NumBins() const { return counts_.size(); }
  std::size_t Count(std::size_t bin) const;
  std::size_t TotalCount() const { return total_; }
  std::size_t Underflow() const { return underflow_; }
  std::size_t Overflow() const { return overflow_; }

  /// Midpoint of bin i.
  double BinCenter(std::size_t bin) const;

  /// Inclusive lower edge of bin i.
  double BinLow(std::size_t bin) const;

  /// Sum of every Add()ed value (under/overflow included) — Prometheus
  /// exposition's `_sum` companion to the bucket counts.
  double Sum() const { return sum_; }

  double Lo() const { return lo_; }
  double Hi() const { return hi_; }

  /// True when `other` spans the same [lo, hi] range with the same bin
  /// count — the precondition for Merge.
  bool SameShape(const Histogram& other) const;

  /// Folds another histogram of the same shape into this one (bin
  /// counts, under/overflow, totals and sums all add). CHECK-fails on a
  /// shape mismatch. Merging an empty histogram is a no-op; a
  /// single-bucket merge adds the lone counts.
  void Merge(const Histogram& other);

  /// The q-quantile (q in [0, 1]) over every recorded sample, linearly
  /// interpolated inside the covering bin. Mass below the range reads as
  /// lo, mass above as hi (the histogram cannot resolve further). An
  /// empty histogram returns lo — the deterministic "no data" answer the
  /// metrics registry relies on.
  double Quantile(double q) const;

 private:
  double lo_, hi_, width_;
  double sum_ = 0.0;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

}  // namespace pm::stats
