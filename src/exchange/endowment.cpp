#include "exchange/endowment.h"

#include <algorithm>

#include "common/check.h"

namespace pm::exchange {
namespace {

/// Headroom over the status quo: a team's budget is this multiple of its
/// footprint value.
constexpr double kBudgetMultiplier = 6.0;

}  // namespace

double FootprintValue(const PoolRegistry& registry,
                      const std::string& home_cluster,
                      const cluster::TaskShape& footprint,
                      std::span<const double> prices) {
  PM_CHECK(prices.size() == registry.size());
  double value = 0.0;
  for (ResourceKind kind : kAllResourceKinds) {
    const auto id = registry.Find(PoolKey{home_cluster, kind});
    PM_CHECK_MSG(id.has_value(),
                 "cluster '" << home_cluster << "' missing pool for "
                             << pm::ToString(kind));
    value += footprint.Of(kind) * prices[*id];
  }
  return value;
}

std::vector<Money> ComputeEndowments(
    const PoolRegistry& registry,
    const std::vector<agents::TeamAgent>& agents,
    std::span<const double> prices, const EndowmentPolicy& policy) {
  std::vector<Money> out;
  out.reserve(agents.size());
  for (const agents::TeamAgent& agent : agents) {
    const double value =
        FootprintValue(registry, agent.profile().home_cluster,
                       agent.profile().footprint, prices);
    Money endowment = Money::FromDollarsRounded(value * kBudgetMultiplier);
    out.push_back(std::max(endowment, policy.minimum));
  }
  return out;
}

std::vector<Money> SplitEvenly(Money total, std::size_t parts) {
  PM_CHECK_MSG(parts > 0, "cannot split into zero parts");
  PM_CHECK_MSG(!total.IsNegative(), "cannot split a negative amount");
  const std::int64_t micros = total.micros();
  const std::int64_t n = static_cast<std::int64_t>(parts);
  const std::int64_t base = micros / n;
  const std::int64_t extra = micros % n;
  std::vector<Money> out;
  out.reserve(parts);
  for (std::int64_t i = 0; i < n; ++i) {
    out.push_back(Money::FromMicros(base + (i < extra ? 1 : 0)));
  }
  return out;
}

}  // namespace pm::exchange
