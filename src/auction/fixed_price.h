// planetmarket: traditional allocation baselines (pre-market world).
//
// §I describes how quotas were set before the market: "the operator either
// grants each user an equal share of the system or decides that certain
// jobs / users are 'more important' than others". These baselines model
// that world so the benches can compare it against the auction: users are
// served in an exogenous ranking; each takes their cheapest affordable
// bundle if it fits, at fixed prices. First-come shortage dynamics.
//
// It charges the *fixed* price vector (the denominator of Figure 6's
// "market price / fixed price" ratio).
#pragma once

#include <string>
#include <vector>

#include "bid/bid.h"

namespace pm::auction {

/// Outcome of a fixed-price allocation.
struct FixedPriceResult {
  /// chosen[u]: bundle index served in full, or -1.
  std::vector<int> chosen;

  /// Per pool: requested demand that could not be served (shortage mass).
  std::vector<double> shortage;

  /// Per pool: supply left unrequested (surplus mass).
  std::vector<double> surplus;

  /// Σ payments at the fixed prices.
  double operator_revenue = 0.0;
};

/// Serves users in the order given by `priority` (indices into `bids`,
/// highest priority first); each is granted the cheapest affordable
/// bundle that fully fits the remaining supply.
FixedPriceResult AllocatePriorityOrder(
    const std::vector<bid::Bid>& bids, const std::vector<double>& supply,
    const std::vector<double>& fixed_prices,
    const std::vector<std::size_t>& priority);

}  // namespace pm::auction
