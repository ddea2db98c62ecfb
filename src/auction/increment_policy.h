// planetmarket: price-increment policies g(x, p).
//
// §III.C.2 discusses the update-increment function: the naive choice
// g = α·z⁺ "often causes the prices to move too quickly in the early
// rounds and then too slowly in the later ones"; Eq. (3) caps it as
// g = min(α·z⁺, δ·e); and a further refinement normalizes increments "for
// differences in the base resource prices" so cheap resources (disk) do
// not end up out of proportion. All three are implemented, plus a
// multiplicative variant, so the convergence ablation can compare them.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pm::auction {

/// Strategy interface mapping (excess demand, prices) to a non-negative
/// additive price step. `excess` is the excess demand the auction
/// provides, normalized by max(supply, 1) per pool (see
/// ClockAuctionConfig::alpha).
class IncrementPolicy {
 public:
  virtual ~IncrementPolicy() = default;

  /// Writes the step for each pool into `step` (same size as prices).
  /// Must be non-negative, and zero wherever excess <= 0.
  virtual void ComputeStep(std::span<const double> excess,
                           std::span<const double> prices,
                           std::span<double> step) const = 0;

  /// Display name for reports.
  virtual std::string_view Name() const = 0;
};

/// g = α·z⁺ — the simplest choice.
std::unique_ptr<IncrementPolicy> MakeAdditivePolicy(double alpha);

/// Eq. (3): g = min(α·z⁺, δ·e), component-wise, with e the all-ones
/// vector. δ is an absolute cap per round.
std::unique_ptr<IncrementPolicy> MakeCappedPolicy(double alpha,
                                                  double delta);

/// Prose variant of Eq. (3): "no price changes by more than some fixed
/// fraction" — g = min(α·z⁺, δ·p), a cap relative to the current price.
/// A floor on the cap keeps zero-reserve pools able to move.
std::unique_ptr<IncrementPolicy> MakeRelativeCappedPolicy(double alpha,
                                                          double delta,
                                                          double floor);

/// Cost-normalized: g_r = c̃_r · min(α·z⁺_r, δ), where c̃_r = c_r / mean(c)
/// scales the step by the pool's base cost so cheap resources rise in
/// proportion (§III.C.2's normalization adjustment).
std::unique_ptr<IncrementPolicy> MakeCostNormalizedPolicy(
    double alpha, double delta, std::vector<double> base_costs);

/// Multiplicative: g = p · min(α·z⁺, δ) (geometric clock). Requires
/// strictly positive starting prices to move at all; the factory takes a
/// floor used when p_r == 0.
std::unique_ptr<IncrementPolicy> MakeMultiplicativePolicy(double alpha,
                                                          double delta,
                                                          double floor);

}  // namespace pm::auction
