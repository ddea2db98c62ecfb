// Planet-wide market: the paper's §V experiment end to end.
//
// Generates a 34-cluster fleet with ~100 engineering teams, then runs
// six weekly auctions on the simulation clock. After each auction it
// prints the market-summary page the trading front end shows (Figure 3)
// and a bid-entry preview (Figure 4); at the end, the price-ratio and
// premium statistics the paper reports.
//
//   $ ./planetary_market [num_clusters] [num_teams] [auctions]
#include <cmath>
#include <iostream>

#include "agents/workload_gen.h"
#include "common/bench_meta.h"
#include "common/table.h"
#include "exchange/capacity_advice.h"
#include "exchange/market.h"
#include "exchange/summary.h"
#include "sim/event_queue.h"
#include "sim/process.h"

int main(int argc, char** argv) {
  pm::agents::WorkloadConfig workload;
  workload.num_clusters = pm::ParseOrExit(pm::kUsageExit, [&] {
    return argc > 1 ? pm::ParseNumberArg("num_clusters", argv[1], 1) : 34;
  });
  workload.num_teams = pm::ParseOrExit(pm::kUsageExit, [&] {
    return argc > 2 ? pm::ParseNumberArg("num_teams", argv[2], 1) : 100;
  });
  const int auctions = pm::ParseOrExit(pm::kUsageExit, [&] {
    return argc > 3 ? pm::ParseNumberArg("auctions", argv[3], 1) : 6;
  });
  workload.seed = 20090425;

  std::cout << "generating a fleet of " << workload.num_clusters
            << " clusters and " << workload.num_teams
            << " engineering teams...\n";
  pm::agents::World world = GenerateWorld(workload);
  std::cout << "fleet CPU utilization "
            << pm::FormatPct(
                   world.fleet.FleetUtilization(pm::ResourceKind::kCpu),
                   1)
            << ", pools: " << world.fleet.NumPools() << "\n\n";

  pm::exchange::MarketConfig config;
  config.auction.alpha = 0.4;
  config.auction.delta = 0.08;
  pm::exchange::Market market(&world.fleet, &world.agents,
                              world.fixed_prices, config);

  // Pre-market summary (reserve prices only).
  std::cout << RenderMarketSummary(market) << '\n';

  // Weekly auctions on the simulation clock.
  pm::sim::EventQueue queue;
  pm::sim::PeriodicProcess weekly(
      queue, 168.0, 168.0, [&](int tick) {
        const pm::exchange::AuctionReport report = market.RunAuction();
        std::cout << "week " << (tick + 1) << ": auction #"
                  << (report.auction_index + 1) << " settled "
                  << report.num_winners << "/" << report.num_bids
                  << " bids in " << report.rounds << " rounds; "
                  << report.moves.size() << " migrations, operator "
                  << (report.operator_revenue >= 0 ? "revenue $"
                                                   : "outlay $")
                  << pm::FormatF(std::abs(report.operator_revenue), 2)
                  << '\n';
        return tick + 1 < auctions;
      });
  queue.RunAll();

  std::cout << '\n' << RenderMarketSummary(market) << '\n';

  // Figure 4's bid-entry preview for a sample requirement.
  std::cout << RenderBidPreview(
                   market, world.fleet.ClusterNames().front(),
                   pm::cluster::TaskShape{50.0, 200.0, 10.0})
            << '\n';

  // Longitudinal premium statistics (Table I's columns).
  pm::TextTable premiums(
      {"auction", "median gamma", "mean gamma", "% settled"});
  for (const pm::exchange::AuctionReport& report : market.History()) {
    premiums.AddRow({std::to_string(report.auction_index + 1),
                     pm::FormatF(report.premium.median, 4),
                     pm::FormatF(report.premium.mean, 4),
                     pm::FormatPct(report.settled_fraction, 1)});
  }
  std::cout << premiums.Render() << '\n';

  // What the operator should do next (§III.A shortage signaling).
  std::cout << "=== capacity advice from the price history ===\n"
            << RenderCapacityAdvice(
                   AdviseCapacity(market.History(),
                                  world.fleet.registry()),
                   world.fleet.registry());
  return 0;
}
