// planetmarket: operator decision support from price signals.
//
// §III.A: a persistent price increase "indicates to the system operator
// that there may be a shortage in the corresponding pool; the operator
// should address this shortage by increasing the supply of resources
// appropriately" — and §IV frames reserve prices as "the basis of a
// decision support framework ... that allows the operator to steer the
// system". This module turns a market's auction history into concrete
// capacity recommendations: pools whose clearing prices persistently sit
// far above the fixed baseline (and whose utilization is high) are
// expansion candidates; persistently discounted, idle pools are
// candidates for repurposing.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"
#include "exchange/report.h"

namespace pm::exchange {

/// What the operator should do with one pool.
enum class CapacityAction { kExpand, kRepurpose };

std::string_view ToString(CapacityAction action);

/// One recommendation.
struct CapacityAdvice {
  PoolId pool = kInvalidPool;
  CapacityAction action = CapacityAction::kExpand;

  /// Mean settled/fixed price ratio over the analysis window.
  double mean_price_ratio = 0.0;

  /// Mean pre-auction utilization over the window, in [0, 1].
  double mean_utilization = 0.0;

  /// Human-readable justification.
  std::string rationale;
};

/// Analyzes the last three reports and returns recommendations: pools
/// that persistently clear far above the fixed price at high utilization
/// are expansion candidates, discounted idle pools are repurposing
/// candidates. Expansion candidates come first, each group sorted by
/// decreasing severity. A pool interned after a report (a cluster adopted
/// since) is judged on the reports that price it. Returns nothing when
/// `history` is empty.
std::vector<CapacityAdvice> AdviseCapacity(
    const std::vector<AuctionReport>& history,
    const PoolRegistry& registry);

/// Renders recommendations as a text table for operator reports.
std::string RenderCapacityAdvice(const std::vector<CapacityAdvice>& advice,
                                 const PoolRegistry& registry);

}  // namespace pm::exchange
