#include "reserve/reserve_pricer.h"

#include <algorithm>

#include "common/check.h"

namespace pm::reserve {

ReservePricer::ReservePricer(
    std::shared_ptr<const WeightingFunction> curve)
    : curve_(std::move(curve)) {
  PM_CHECK(curve_ != nullptr);
}

std::vector<double> ReservePricer::Price(
    const PoolRegistry& registry, std::span<const double> utilization,
    std::span<const double> cost) const {
  PM_CHECK_MSG(utilization.size() == registry.size() &&
                   cost.size() == registry.size(),
               "utilization/cost vectors must match the registry size");
  const WeightingFunction& phi = *curve_;
  std::vector<double> prices(registry.size(), 0.0);
  for (PoolId r = 0; r < registry.size(); ++r) {
    const double psi = std::clamp(utilization[r], 0.0, 1.0);
    PM_CHECK_MSG(cost[r] >= 0.0, "negative cost for pool " << r);
    prices[r] = phi(psi) * cost[r];
  }
  return prices;
}

std::vector<double> ReservePricer::PriceFleet(
    const cluster::Fleet& fleet) const {
  return Price(fleet.registry(), fleet.UtilizationVector(),
               fleet.CostVector());
}

}  // namespace pm::reserve
