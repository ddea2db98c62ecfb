// planetmarket: congestion-weighted reserve prices (§IV, Eq. 4).
//
//     p̃_r = φ_r(ψ(r)) · c(r)
//
// The reserve price of each pool is its real cost scaled by the weighting
// of its current utilization. These prices seed the clock auction (its
// starting prices) and steer bidders toward under-utilized pools before a
// single round has run — the decision-support role §IV describes for
// markets with limited liquidity.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "cluster/fleet.h"
#include "reserve/weighting.h"

namespace pm::reserve {

/// Computes per-pool reserve prices from utilizations and costs.
class ReservePricer {
 public:
  /// One weighting curve shared by all pools.
  explicit ReservePricer(std::shared_ptr<const WeightingFunction> curve);

  /// p̃ = φ(ψ)·c element-wise. Inputs are dense per-pool vectors, one
  /// entry per pool of `registry`.
  std::vector<double> Price(const PoolRegistry& registry,
                            std::span<const double> utilization,
                            std::span<const double> cost) const;

  /// Convenience: price a fleet's pools from its current state.
  std::vector<double> PriceFleet(const cluster::Fleet& fleet) const;

 private:
  std::shared_ptr<const WeightingFunction> curve_;
};

}  // namespace pm::reserve
