// Reproduces Table I: "Bid premium statistics" — the median and mean of
// the winner premium γ_u = |π_u − x_u·p| / (x_u·p) (Eq. 5) and the
// fraction of bids settled, across successive auctions with learning
// bidders.
//
// Paper values (shape targets, not absolutes):
//   auction 1: median 0.0092, mean 0.0614, 58.9% settled
//   auction 2: median 0.0025, mean 0.2078, 88.2% settled
//   auction 3: median 0.0009, mean 0.0202, 50.0% settled
// i.e. the median collapses by roughly an order of magnitude as bidders
// learn the market prices, while the mean stays noisy (lowball sellers
// and premium payers), and the settle rate fluctuates.
#include <algorithm>
#include <iostream>
#include <vector>
#include <memory>

#include "agents/workload_gen.h"
#include "common/table.h"
#include "exchange/market.h"
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

  std::cout << "=== Table I: bid premium statistics across auctions "
               "===\n\n";

  pm::TextTable table({"auction", "median of gamma", "mean of gamma",
                       "% settled", "winners", "rounds"});
  const int kAuctions = 6;  // The paper ran six experimental auctions.
  std::vector<double> medians;
  for (int a = 0; a < kAuctions; ++a) {
    const pm::exchange::AuctionReport report = market.RunAuction();
    table.AddRow({std::to_string(a + 1),
                  pm::FormatF(report.premium.median, 4),
                  pm::FormatF(report.premium.mean, 4),
                  pm::FormatPct(report.settled_fraction, 1),
                  std::to_string(report.num_winners),
                  std::to_string(report.rounds)});
    medians.push_back(report.premium.median);
  }
  std::cout << table.Render() << '\n';

  // Learning trend: first auction vs the mean of the trailing half
  // (single auctions are noisy when the settle rate dips and the few
  // remaining winners are the structural premium payers).
  const double first_median = medians.front();
  double late_mean = 0.0;
  const std::size_t half = medians.size() / 2;
  for (std::size_t a = half; a < medians.size(); ++a) {
    late_mean += medians[a];
  }
  late_mean /= static_cast<double>(medians.size() - half);
  const double min_median =
      *std::min_element(medians.begin(), medians.end());
  std::cout << "shape check: median premium fell from "
            << pm::FormatF(first_median, 4)
            << " (auction 1) to a trailing-half mean of "
            << pm::FormatF(late_mean, 4) << " ("
            << pm::FormatF(first_median / std::max(late_mean, 1e-9), 1)
            << "x decline; best auction " << pm::FormatF(min_median, 4)
            << " = "
            << pm::FormatF(first_median / std::max(min_median, 1e-9), 1)
            << "x; paper: 0.0092 -> 0.0009, ~10x over 3 auctions)\n"
            << "               mean premium stays noisy due to lowball "
               "sellers and premium-sticky buyers (paper: 0.06 -> 0.21 "
               "-> 0.02)\n";
  return 0;
}
