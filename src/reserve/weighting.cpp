#include "reserve/weighting.h"

#include <cmath>
#include <sstream>

#include "common/check.h"

namespace pm::reserve {
namespace {

class Exp2Weighting final : public WeightingFunction {
 public:
  double operator()(double x) const override {
    return std::exp(2.0 * (x - 0.5));
  }
  std::string_view Name() const override { return "exp2"; }
};

class ExpWeighting final : public WeightingFunction {
 public:
  double operator()(double x) const override { return std::exp(x - 0.5); }
  std::string_view Name() const override { return "exp"; }
};

class ReciprocalWeighting final : public WeightingFunction {
 public:
  double operator()(double x) const override { return 1.0 / (1.5 - x); }
  std::string_view Name() const override { return "reciprocal"; }
};

class FlatWeighting final : public WeightingFunction {
 public:
  double operator()(double) const override { return 1.0; }
  std::string_view Name() const override { return "flat"; }
};

}  // namespace

std::unique_ptr<WeightingFunction> MakeExp2Weighting() {
  return std::make_unique<Exp2Weighting>();
}

std::unique_ptr<WeightingFunction> MakeExpWeighting() {
  return std::make_unique<ExpWeighting>();
}

std::unique_ptr<WeightingFunction> MakeReciprocalWeighting() {
  return std::make_unique<ReciprocalWeighting>();
}

std::unique_ptr<WeightingFunction> MakeFlatWeighting() {
  return std::make_unique<FlatWeighting>();
}

std::string CheckWeightingProperties(const WeightingFunction& fn,
                                     double over_threshold,
                                     double max_dynamic_range,
                                     int samples) {
  PM_CHECK(samples >= 8);
  std::ostringstream os;
  auto at = [&fn](int i, int n) {
    return fn(static_cast<double>(i) / static_cast<double>(n));
  };
  const int n = samples - 1;

  // 1. Monotonically increasing (non-strict would defeat the signal).
  for (int i = 0; i < n; ++i) {
    if (at(i + 1, n) < at(i, n) - 1e-12) {
      os << "property 1 violated: φ decreases between x="
         << static_cast<double>(i) / n << " and x="
         << static_cast<double>(i + 1) / n;
      return os.str();
    }
  }

  // 2. φ > 1 when over-utilized (strictly above the threshold).
  for (int i = 0; i <= n; ++i) {
    const double x = static_cast<double>(i) / n;
    if (x > over_threshold + 1e-9 && fn(x) <= 1.0) {
      os << "property 2 violated: φ(" << x << ") = " << fn(x) << " <= 1";
      return os.str();
    }
  }

  // 3. φ ≤ 1 when under-utilized (at or below the threshold).
  for (int i = 0; i <= n; ++i) {
    const double x = static_cast<double>(i) / n;
    if (x <= over_threshold - 1e-9 && fn(x) > 1.0 + 1e-9) {
      os << "property 3 violated: φ(" << x << ") = " << fn(x) << " > 1";
      return os.str();
    }
  }

  // 4. The congested end is steeper than the idle end: compare the rise
  // over the top (80–99 %) segment to the rise over the (15–40 %) one —
  // the paper's own example percentages.
  const double hot_rise = fn(0.99) - fn(0.80);
  const double cold_rise = fn(0.40) - fn(0.15);
  if (hot_rise <= cold_rise) {
    os << "property 4 violated: rise over [80%,99%] = " << hot_rise
       << " not greater than rise over [15%,40%] = " << cold_rise;
    return os.str();
  }

  // 5. Bounded dynamic range k = φ(1)/φ(0).
  const double phi0 = fn(0.0);
  if (phi0 <= 0.0) {
    os << "property 5 violated: φ(0) = " << phi0 << " not positive";
    return os.str();
  }
  const double k = fn(1.0) / phi0;
  if (!(k >= 1.0) || k > max_dynamic_range) {
    os << "property 5 violated: dynamic range k = " << k
       << " outside [1, " << max_dynamic_range << "]";
    return os.str();
  }
  return {};
}

}  // namespace pm::reserve
