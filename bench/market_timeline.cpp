// Reproduces the §V.B longitudinal narrative: "we have run six
// experimental auctions over the course of several months. As desired, we
// have seen excess demand raise the price of resources which were
// previously oversubscribed and seen a number of groups move to less
// crowded clusters."
//
// Runs a six-auction market on the simulation clock (one auction per
// simulated week) and prints, per auction: the mean price ratio of the
// hot vs cold half of the fleet, migrations executed, settle rate, and
// the cross-pool utilization spread.
//
// Shape to match: hot-pool prices spike early then relax as teams
// migrate; the utilization spread shrinks from auction to auction.
#include <cmath>
#include <iostream>
#include <memory>

#include "agents/workload_gen.h"
#include "common/table.h"
#include "exchange/capacity_advice.h"
#include "exchange/market.h"
#include "sim/event_queue.h"
#include "sim/process.h"
#include "common/bench_meta.h"
#include "common/thread_pool.h"

int main(int argc, char** argv) {
  const unsigned threads = pm::ParseOrExit(
      pm::kUsageExit, [&] { return pm::ParseThreadsFlag(&argc, argv, 0); });
  // --threads: size of the shared auction pool (0/1 = serial).
  std::unique_ptr<pm::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<pm::ThreadPool>(threads);

  pm::agents::WorkloadConfig workload;
  workload.num_clusters = 34;
  workload.num_teams = 100;
  workload.seed = 20090425;
  pm::agents::World world = GenerateWorld(workload);

  pm::exchange::MarketConfig config;
  config.auction.alpha = 0.4;
  config.auction.delta = 0.08;
  config.auction.thread_pool = pool.get();
  pm::exchange::Market market(&world.fleet, &world.agents,
                              world.fixed_prices, config);

  // Classify pools once, by pre-market utilization.
  const std::vector<double> initial_util =
      world.fleet.UtilizationVector();
  std::vector<bool> is_hot(initial_util.size());
  for (std::size_t r = 0; r < initial_util.size(); ++r) {
    is_hot[r] = initial_util[r] > 0.6;
  }

  std::cout << "=== Market timeline: six weekly auctions (§V.B) ===\n\n";
  pm::TextTable table({"week", "auction", "hot ratio", "cold ratio",
                       "migrations", "settle rate", "util spread (pp)",
                       "rounds"});

  pm::sim::EventQueue queue;
  pm::sim::PeriodicProcess weekly(
      queue, /*first_at=*/168.0, /*period=*/168.0, [&](int tick) {
        const pm::exchange::AuctionReport report = market.RunAuction();
        const std::vector<double> ratios =
            pm::exchange::PriceRatios(report);
        double hot_sum = 0, cold_sum = 0;
        int hot_n = 0, cold_n = 0;
        for (std::size_t r = 0; r < ratios.size(); ++r) {
          if (std::isnan(ratios[r])) continue;
          if (is_hot[r]) {
            hot_sum += ratios[r];
            ++hot_n;
          } else {
            cold_sum += ratios[r];
            ++cold_n;
          }
        }
        table.AddRow(
            {std::to_string(tick + 1),
             std::to_string(report.auction_index + 1),
             hot_n > 0 ? pm::FormatF(hot_sum / hot_n, 3) : "-",
             cold_n > 0 ? pm::FormatF(cold_sum / cold_n, 3) : "-",
             std::to_string(report.moves.size()),
             pm::FormatPct(report.settled_fraction, 1),
             pm::FormatF(pm::exchange::UtilizationSpread(
                             report.post_utilization),
                         2),
             std::to_string(report.rounds)});
        return tick < 5;  // Six auctions.
      });
  queue.RunAll();

  std::cout << table.Render() << '\n';
  const auto& history = market.History();
  const double spread_first =
      pm::exchange::UtilizationSpread(history.front().pre_utilization);
  const double spread_last =
      pm::exchange::UtilizationSpread(history.back().post_utilization);
  std::cout << "shape check: utilization spread "
            << pm::FormatF(spread_first, 2) << "pp -> "
            << pm::FormatF(spread_last, 2)
            << "pp across six auctions; hot pools open at a premium and "
               "relax as groups move to less crowded clusters\n\n";

  // §III.A decision support: what the price history tells the operator.
  std::cout << "=== operator capacity advice after six auctions ===\n"
            << RenderCapacityAdvice(
                   AdviseCapacity(market.History(),
                                  world.fleet.registry()),
                   world.fleet.registry());
  return 0;
}
