#include "stats/histogram.h"

#include <algorithm>

#include "common/check.h"

namespace pm::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)) {
  PM_CHECK_MSG(hi > lo, "histogram range [" << lo << "," << hi
                                            << "] is empty");
  PM_CHECK(bins >= 1);
  counts_.assign(bins, 0);
}

void Histogram::Add(double value) {
  ++total_;
  sum_ += value;
  if (value < lo_) {
    ++underflow_;
    return;
  }
  if (value > hi_) {
    ++overflow_;
    return;
  }
  auto bin = static_cast<std::size_t>((value - lo_) / width_);
  bin = std::min(bin, counts_.size() - 1);  // value == hi_ lands here.
  ++counts_[bin];
}

std::size_t Histogram::Count(std::size_t bin) const {
  PM_CHECK(bin < counts_.size());
  return counts_[bin];
}

double Histogram::BinCenter(std::size_t bin) const {
  PM_CHECK(bin < counts_.size());
  return lo_ + (static_cast<double>(bin) + 0.5) * width_;
}

double Histogram::BinLow(std::size_t bin) const {
  PM_CHECK(bin < counts_.size());
  return lo_ + static_cast<double>(bin) * width_;
}

bool Histogram::SameShape(const Histogram& other) const {
  return lo_ == other.lo_ && hi_ == other.hi_ &&
         counts_.size() == other.counts_.size();
}

void Histogram::Merge(const Histogram& other) {
  PM_CHECK_MSG(SameShape(other),
               "histogram merge shape mismatch: ["
                   << lo_ << "," << hi_ << "]x" << counts_.size()
                   << " vs [" << other.lo_ << "," << other.hi_ << "]x"
                   << other.counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  total_ += other.total_;
  sum_ += other.sum_;
}

double Histogram::Quantile(double q) const {
  PM_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile q=" << q
                                                   << " outside [0,1]");
  if (total_ == 0) return lo_;
  // Target rank among all recorded samples (0 → the first sample's
  // position, total → the last's). Cumulative mass walks underflow,
  // bins, then overflow.
  const double rank = q * static_cast<double>(total_);
  double cum = static_cast<double>(underflow_);
  if (underflow_ > 0 && rank <= cum) return lo_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double next = cum + static_cast<double>(counts_[i]);
    if (rank <= next) {
      const double frac =
          std::clamp((rank - cum) / static_cast<double>(counts_[i]),
                     0.0, 1.0);
      return BinLow(i) + frac * width_;
    }
    cum = next;
  }
  return hi_;  // Remaining mass sits above the range.
}

}  // namespace pm::stats
