// planetmarket: initial budget disbursement.
//
// §IV.A property 5 ties the weighting function's dynamic range to "the
// strategy used for disbursement of initial budget dollars among bidders",
// which the paper does not elaborate. Our policy (documented substitution,
// DESIGN.md §2): each team is endowed in proportion to the value of its
// current footprint at the pre-market fixed prices, times a headroom
// multiplier — every team can afford its status quo plus growth, and big
// teams get proportionally bigger budgets (as any usage-based chargeback
// would give them).
#pragma once

#include <span>
#include <vector>

#include "agents/team.h"
#include "common/money.h"
#include "common/types.h"

namespace pm::exchange {

/// Endowment policy parameters. A team's budget is a fixed multiple of
/// its footprint value at the given prices, never below `minimum`.
struct EndowmentPolicy {
  /// Floor so that zero-footprint teams can still participate.
  Money minimum = Money::FromDollars(100);
};

/// Value of `footprint` at per-pool `prices`, using the pools of
/// `home_cluster`.
double FootprintValue(const PoolRegistry& registry,
                      const std::string& home_cluster,
                      const cluster::TaskShape& footprint,
                      std::span<const double> prices);

/// Computes each agent's endowment under the policy.
std::vector<Money> ComputeEndowments(
    const PoolRegistry& registry,
    const std::vector<agents::TeamAgent>& agents,
    std::span<const double> prices, const EndowmentPolicy& policy);

/// Divides `total` into `parts` amounts that differ by at most one
/// micro-dollar and sum to `total` exactly (the first `total mod parts`
/// parts carry the extra micro). The federation's allowance push uses it
/// to divide an underfunded team's remaining planet balance fairly
/// across shards instead of letting shard 0 drain the pot.
std::vector<Money> SplitEvenly(Money total, std::size_t parts);

}  // namespace pm::exchange
