// The operator's week: the §V.A platform flow from the operator side.
//
//  1. open the bid-collection window on the simulation clock
//  2. teams file bids over three days; preliminary prices tick every
//     12 h on the front end (Figure 5's non-binding simulation loop)
//  3. the window closes; the final book runs as the binding clock
//     auction with congestion-weighted reserves
//  4. the operator reads the price signals and the capacity advice
//
//   $ ./operator_console
#include <iostream>

#include "agents/workload_gen.h"
#include "auction/settlement.h"
#include "common/table.h"
#include "exchange/bid_window.h"
#include "exchange/capacity_advice.h"
#include "exchange/market.h"
#include "exchange/summary.h"
#include "sim/event_queue.h"

int main() {
  pm::agents::WorkloadConfig workload;
  workload.num_clusters = 8;
  workload.num_teams = 24;
  workload.seed = 1234;
  pm::agents::World world = GenerateWorld(workload);

  pm::exchange::MarketConfig config;
  pm::exchange::Market market(&world.fleet, &world.agents,
                              world.fixed_prices, config);

  std::cout << RenderMarketSummary(market) << '\n';

  // --- 1-2. Bid window with preliminary ticks -------------------------
  pm::sim::EventQueue queue;
  pm::exchange::BidWindow window(
      queue, world.fleet.NumPools(), /*close_at=*/72.0, /*tick_period=*/12.0,
      [&market](std::vector<pm::bid::Bid> bids) {
        return market.ComputePreliminaryPrices(std::move(bids));
      });

  // Teams file bids at staggered times (here: their strategy output,
  // submitted manually so the window mechanics are visible).
  const std::vector<double> reserve = market.CurrentReservePrices();
  const std::vector<double> util = world.fleet.UtilizationVector();
  const std::vector<double> free_supply = world.fleet.FreeVector();
  std::size_t submitted = 0;
  for (std::size_t a = 0; a < world.agents.size(); ++a) {
    const pm::sim::SimTime at = 2.0 + static_cast<double>(a) * 2.5;
    if (at >= 70.0) break;
    queue.ScheduleAt(at, [&, a] {
      pm::agents::MarketView view;
      view.registry = &world.fleet.registry();
      view.reserve_prices = reserve;
      view.utilization = util;
      view.free_capacity = free_supply;
      view.budget = 1e9;  // Demo: windows, not budgets.
      for (pm::bid::Bid& b : world.agents[a].MakeBids(view)) {
        if (window.Submit(std::move(b))) ++submitted;
      }
    });
  }
  queue.RunUntil(72.0);

  std::cout << "bid window closed with " << submitted
            << " bids; preliminary price ticks published: "
            << window.Ticks().size() << '\n';
  pm::TextTable ticks({"t (h)", "bids in book", "mean prelim $/unit"});
  for (const pm::exchange::PreliminaryTick& tick : window.Ticks()) {
    double mean = 0.0;
    for (double p : tick.prices) mean += p;
    mean /= static_cast<double>(tick.prices.size());
    ticks.AddRow({pm::FormatF(tick.at, 0),
                  std::to_string(tick.bids_in_book),
                  pm::FormatF(mean, 3)});
  }
  std::cout << ticks.Render() << '\n';

  // --- 3. The binding auction on the final book -----------------------
  std::vector<pm::bid::Bid> final_bids = window.Close();
  if (final_bids.empty()) {
    std::cout << "no bids to settle\n";
    return 0;
  }
  pm::auction::ClockAuction auction(std::move(final_bids),
                                    world.fleet.FreeVector(), reserve);
  const pm::auction::ClockAuctionResult result =
      auction.Run(config.auction);
  const pm::auction::Settlement settlement =
      pm::auction::Settle(auction, result);
  std::cout << "binding auction: " << settlement.awards.size() << " of "
            << auction.NumUsers() << " bids settled in " << result.rounds
            << " rounds; operator revenue $"
            << pm::FormatF(settlement.operator_revenue, 2) << "\n\n";

  // --- 4. Decision support --------------------------------------------
  // Give the operator a synthetic history: the market's own auction on
  // live state (so advice has data to chew on).
  market.RunAuction();
  std::cout << "=== capacity advice ===\n"
            << RenderCapacityAdvice(
                   AdviseCapacity(market.History(),
                                  world.fleet.registry()),
                   world.fleet.registry());
  return 0;
}
