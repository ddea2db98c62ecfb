#include "exchange/capacity_advice.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"
#include "common/table.h"

namespace pm::exchange {
namespace {

/// Auctions considered (the most recent kWindow reports).
constexpr std::size_t kWindow = 3;

/// A pool is an expansion candidate when its mean price ratio is at
/// least kHotRatio and its mean utilization at least kHotUtilization.
constexpr double kHotRatio = 1.30;
constexpr double kHotUtilization = 0.60;

/// A pool is a repurposing candidate when its mean price ratio is at
/// most kColdRatio and its mean utilization at most kColdUtilization.
constexpr double kColdRatio = 0.75;
constexpr double kColdUtilization = 0.30;

}  // namespace

std::string_view ToString(CapacityAction action) {
  switch (action) {
    case CapacityAction::kExpand:
      return "expand";
    case CapacityAction::kRepurpose:
      return "repurpose";
  }
  return "unknown";
}

std::vector<CapacityAdvice> AdviseCapacity(
    const std::vector<AuctionReport>& history,
    const PoolRegistry& registry) {
  std::vector<CapacityAdvice> advice;
  if (history.empty()) return advice;

  const std::size_t first =
      history.size() > kWindow ? history.size() - kWindow : 0;
  const std::size_t num_pools = registry.size();
  // The registry only grows, so an older report may cover a prefix of
  // it; one covering more pools than the registry is from another market.
  for (std::size_t h = first; h < history.size(); ++h) {
    const AuctionReport& report = history[h];
    PM_CHECK_MSG(report.settled_prices.size() <= num_pools &&
                     report.fixed_prices.size() ==
                         report.settled_prices.size() &&
                     report.pre_utilization.size() ==
                         report.settled_prices.size(),
                 "report does not match registry");
  }

  for (PoolId r = 0; r < num_pools; ++r) {
    double ratio_sum = 0.0;
    double util_sum = 0.0;
    int n = 0;
    for (std::size_t h = first; h < history.size(); ++h) {
      const AuctionReport& report = history[h];
      if (r >= report.settled_prices.size()) continue;  // Interned since.
      if (report.fixed_prices[r] <= 0.0) continue;
      ratio_sum += report.settled_prices[r] / report.fixed_prices[r];
      util_sum += report.pre_utilization[r];
      ++n;
    }
    if (n == 0) continue;
    const double mean_ratio = ratio_sum / n;
    const double mean_util = util_sum / n;

    if (mean_ratio >= kHotRatio && mean_util >= kHotUtilization) {
      CapacityAdvice a;
      a.pool = r;
      a.action = CapacityAction::kExpand;
      a.mean_price_ratio = mean_ratio;
      a.mean_utilization = mean_util;
      std::ostringstream os;
      os << "clears at " << FormatF(mean_ratio, 2)
         << "x the fixed price at " << FormatPct(mean_util, 0)
         << " utilization over the last " << n
         << " auction(s): demand persistently exceeds supply";
      a.rationale = os.str();
      advice.push_back(std::move(a));
    } else if (mean_ratio <= kColdRatio && mean_util <= kColdUtilization) {
      CapacityAdvice a;
      a.pool = r;
      a.action = CapacityAction::kRepurpose;
      a.mean_price_ratio = mean_ratio;
      a.mean_utilization = mean_util;
      std::ostringstream os;
      os << "clears at " << FormatF(mean_ratio, 2)
         << "x the fixed price at " << FormatPct(mean_util, 0)
         << " utilization over the last " << n
         << " auction(s): capacity is stranded";
      a.rationale = os.str();
      advice.push_back(std::move(a));
    }
  }

  std::sort(advice.begin(), advice.end(),
            [](const CapacityAdvice& a, const CapacityAdvice& b) {
              if (a.action != b.action) {
                return a.action == CapacityAction::kExpand;
              }
              // Expansion: highest ratio first. Repurposing: lowest.
              return a.action == CapacityAction::kExpand
                         ? a.mean_price_ratio > b.mean_price_ratio
                         : a.mean_price_ratio < b.mean_price_ratio;
            });
  return advice;
}

std::string RenderCapacityAdvice(const std::vector<CapacityAdvice>& advice,
                                 const PoolRegistry& registry) {
  if (advice.empty()) {
    return "capacity advice: prices and utilization are balanced; no "
           "action indicated\n";
  }
  TextTable table({"pool", "action", "price ratio", "utilization",
                   "rationale"});
  table.SetAlign(4, Align::kLeft);
  for (const CapacityAdvice& a : advice) {
    table.AddRow({registry.NameOf(a.pool),
                  std::string(ToString(a.action)),
                  FormatF(a.mean_price_ratio, 2),
                  FormatPct(a.mean_utilization, 1), a.rationale});
  }
  return table.Render();
}

}  // namespace pm::exchange
