// planetmarket: utilization weighting functions φ_r(·) (§IV).
//
// Reserve prices are p̃_r = φ_r(ψ(r))·c(r): the real cost of a pool scaled
// by a congestion weighting. §IV.A requires of φ:
//
//   1. monotonically increasing
//   2. φ > 1 for over-utilized pools
//   3. φ ≤ 1 for under-utilized pools
//   4. steeper among congested pools than among idle ones (convexity —
//      the operator does not care about moves between cold clusters)
//   5. φ(100%) = k·φ(0%) for a bounded constant k (ties into the budget
//      endowment)
//
// Figure 2's example curves are provided: φ1(x) = exp(2(x−½)),
// φ2(x) = exp(x−½), φ3(x) = 1/(1.5−x), with x the normalized utilization
// in [0, 1].
#pragma once

#include <memory>
#include <string>
#include <string_view>

namespace pm::reserve {

/// A congestion weighting curve. Input is normalized utilization in
/// [0, 1]; output is the price multiple applied to the pool's base cost.
class WeightingFunction {
 public:
  virtual ~WeightingFunction() = default;

  /// φ(x). x is clamped to [0, 1] by callers.
  virtual double operator()(double utilization) const = 0;

  /// Display name ("exp2", "exp", "reciprocal", …).
  virtual std::string_view Name() const = 0;

  /// The bound k = φ(1)/φ(0) of property 5.
  double DynamicRange() const { return (*this)(1.0) / (*this)(0.0); }
};

/// φ1(x) = exp(2(x − 0.5)). Steepest of the paper's examples; k = e².
std::unique_ptr<WeightingFunction> MakeExp2Weighting();

/// φ2(x) = exp(x − 0.5). Gentle exponential; k = e.
std::unique_ptr<WeightingFunction> MakeExpWeighting();

/// φ3(x) = 1/(1.5 − x). Hyperbolic, hardest penalty near full; k = 3.
std::unique_ptr<WeightingFunction> MakeReciprocalWeighting();

/// φ(x) = 1: congestion-blind reserves (the ablation control).
std::unique_ptr<WeightingFunction> MakeFlatWeighting();

/// Checks §IV.A properties 1–5 on a curve by dense sampling. Returns the
/// empty string when all hold, else a description of the first failure.
/// `over_threshold` marks where "over-utilized" begins (the properties'
/// pivot; 0.5 matches the paper's example curves, which all cross 1
/// there).
std::string CheckWeightingProperties(const WeightingFunction& fn,
                                     double over_threshold = 0.5,
                                     double max_dynamic_range = 64.0,
                                     int samples = 512);

}  // namespace pm::reserve
