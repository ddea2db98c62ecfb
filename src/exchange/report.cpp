#include "exchange/report.h"

#include <cmath>
#include <limits>

#include "common/check.h"
#include "stats/descriptive.h"

namespace pm::exchange {

std::string_view ToString(PlacementOutcome::Status status) {
  switch (status) {
    case PlacementOutcome::Status::kPlaced:
      return "placed";
    case PlacementOutcome::Status::kPartial:
      return "partial";
    case PlacementOutcome::Status::kFailed:
      return "failed";
  }
  return "?";
}

std::string_view ToString(ExternalRejection::Reason reason) {
  switch (reason) {
    case ExternalRejection::Reason::kBudget:
      return "budget";
    case ExternalRejection::Reason::kValidation:
      return "validation";
  }
  return "?";
}

std::vector<double> PriceRatios(const AuctionReport& report) {
  PM_CHECK(report.settled_prices.size() == report.fixed_prices.size());
  std::vector<double> ratios(report.settled_prices.size());
  for (std::size_t r = 0; r < ratios.size(); ++r) {
    ratios[r] = report.fixed_prices[r] > 0.0
                    ? report.settled_prices[r] / report.fixed_prices[r]
                    : std::numeric_limits<double>::quiet_NaN();
  }
  return ratios;
}

std::vector<double> TradePercentiles(const AuctionReport& report,
                                     ResourceKind kind, bool is_bid) {
  std::vector<double> out;
  for (const TradeSample& t : report.trades) {
    if (t.kind == kind && t.is_bid == is_bid) {
      out.push_back(t.util_percentile);
    }
  }
  return out;
}

double UtilizationSpread(const std::vector<double>& utilization) {
  if (utilization.empty()) return 0.0;
  return 100.0 * stats::MeanAbsDeviation(utilization);
}

}  // namespace pm::exchange
