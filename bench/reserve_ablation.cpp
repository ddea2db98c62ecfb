// Ablation for §IV + the abstract's headline claim: congestion-weighted
// reserve prices steer bidders toward cold pools and "reduce the
// excessive shortages and surpluses of more traditional allocation
// methods."
//
// On identical worlds this bench compares four provisioning regimes:
//   * fixed-price priority quota (the traditional baseline)
//   * market with flat reserves        φ(x) = 1
//   * market with φ2 = exp(x−0.5)
//   * market with φ1 = exp(2(x−0.5))   (the paper's steepest curve)
//   * market with φ3 = 1/(1.5−x)
// and reports the cross-pool utilization dispersion after four auction
// rounds, plus shortage mass under the traditional scheme.
//
// Shape to match: weighted reserves narrow the utilization spread more
// than flat reserves; the traditional fixed allocation leaves the spread
// essentially untouched and accumulates shortages in hot pools.
#include <iostream>
#include <numeric>
#include <memory>

#include "agents/strategy.h"
#include "agents/workload_gen.h"
#include "auction/fixed_price.h"
#include "common/table.h"
#include "exchange/market.h"
#include "common/bench_meta.h"
#include "common/thread_pool.h"

namespace {

pm::agents::WorkloadConfig Workload() {
  pm::agents::WorkloadConfig config;
  config.num_clusters = 20;
  config.num_teams = 60;
  config.min_machines_per_cluster = 25;
  config.max_machines_per_cluster = 50;
  config.seed = 424242;
  return config;
}

struct RegimeResult {
  std::string name;
  double spread_before = 0.0;
  double spread_after = 0.0;
  double settle_rate = 0.0;
  std::size_t moves = 0;
};

// Shared auction pool for the market regimes (set from --threads in
// main; null = serial, the default).
pm::ThreadPool* g_auction_pool = nullptr;

RegimeResult RunMarketRegime(
    const std::string& name,
    std::shared_ptr<const pm::reserve::WeightingFunction> curve) {
  pm::agents::World world = GenerateWorld(Workload());
  pm::exchange::MarketConfig config;
  config.auction.alpha = 0.4;
  config.auction.delta = 0.08;
  config.auction.thread_pool = g_auction_pool;
  config.weighting = std::move(curve);
  pm::exchange::Market market(&world.fleet, &world.agents,
                              world.fixed_prices, config);
  RegimeResult result;
  result.name = name;
  result.spread_before =
      pm::exchange::UtilizationSpread(world.fleet.UtilizationVector());
  double settle_sum = 0.0;
  const int kRounds = 4;
  for (int i = 0; i < kRounds; ++i) {
    const pm::exchange::AuctionReport report = market.RunAuction();
    settle_sum += report.settled_fraction;
    result.moves += report.moves.size();
  }
  result.spread_after =
      pm::exchange::UtilizationSpread(world.fleet.UtilizationVector());
  result.settle_rate = settle_sum / kRounds;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned threads = pm::ParseOrExit(
      pm::kUsageExit, [&] { return pm::ParseThreadsFlag(&argc, argv, 0); });
  // --threads: size of the shared auction pool (0/1 = serial).
  std::unique_ptr<pm::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<pm::ThreadPool>(threads);
  g_auction_pool = pool.get();
  std::cout << "=== Reserve-pricing ablation: utilization dispersion "
               "across regimes ===\n\n";

  // Traditional baseline: teams request growth at fixed prices in
  // priority order; nothing migrates, shortages pile up in hot pools.
  RegimeResult traditional;
  {
    pm::agents::World world = GenerateWorld(Workload());
    traditional.name = "fixed-price quota (traditional)";
    traditional.spread_before = pm::exchange::UtilizationSpread(
        world.fleet.UtilizationVector());
    double shortage_mass = 0.0;
    for (int round = 0; round < 4; ++round) {
      // Teams want to grow in place at the fixed prices.
      std::vector<pm::bid::Bid> bids;
      for (pm::agents::TeamAgent& agent : world.agents) {
        const pm::agents::TeamProfile& p = agent.profile();
        const pm::cluster::TaskShape delta =
            p.footprint * p.growth_rate;
        pm::bid::Bid b;
        b.name = p.name;
        const pm::PoolRegistry& registry = world.fleet.registry();
        b.bundles = {pm::agents::BundleForCluster(
            registry, *registry.FindCluster(p.home_cluster),
            pm::cluster::TaskShape{std::max(delta.cpu, 1.0),
                                   std::max(delta.ram_gb, 2.0),
                                   std::max(delta.disk_tb, 0.1)})};
        b.limit = 1e12;  // Quota requests ignore prices; rank decides.
        bids.push_back(std::move(b));
      }
      pm::bid::AssignUserIds(bids);
      std::vector<std::size_t> priority(bids.size());
      std::iota(priority.begin(), priority.end(), 0);
      const pm::auction::FixedPriceResult fixed =
          pm::auction::AllocatePriorityOrder(bids,
                                             world.fleet.FreeVector(),
                                             world.fixed_prices, priority);
      for (double s : fixed.shortage) shortage_mass += s;
      // Apply grants physically (growth in place where it fits).
      pm::cluster::JobId next_id = 900000 + round * 1000;
      for (std::size_t u = 0; u < bids.size(); ++u) {
        if (fixed.chosen[u] < 0) continue;
        const pm::agents::TeamProfile& p =
            world.agents[u].profile();
        pm::cluster::Job job;
        job.id = next_id++;
        job.team = p.name;
        job.tasks = 4;
        const pm::cluster::TaskShape delta =
            p.footprint * (p.growth_rate / 4.0);
        job.shape = pm::cluster::TaskShape{
            std::max(delta.cpu, 0.25), std::max(delta.ram_gb, 0.5),
            std::max(delta.disk_tb, 0.025)};
        world.fleet.AddJob(p.home_cluster, job);
      }
    }
    traditional.spread_after = pm::exchange::UtilizationSpread(
        world.fleet.UtilizationVector());
    std::cout << "traditional regime shortage mass over 4 rounds: "
              << pm::FormatF(shortage_mass, 1) << " units\n\n";
  }

  std::vector<RegimeResult> results;
  results.push_back(traditional);
  results.push_back(RunMarketRegime("market, flat reserves (phi=1)",
                                    pm::reserve::MakeFlatWeighting()));
  results.push_back(RunMarketRegime("market, phi2 = exp(x-0.5)",
                                    pm::reserve::MakeExpWeighting()));
  results.push_back(RunMarketRegime("market, phi1 = exp(2(x-0.5))",
                                    pm::reserve::MakeExp2Weighting()));
  results.push_back(
      RunMarketRegime("market, phi3 = 1/(1.5-x)",
                      pm::reserve::MakeReciprocalWeighting()));

  pm::TextTable table({"regime", "spread before (pp)",
                       "spread after (pp)", "reduction", "settle rate",
                       "migrations"});
  for (const RegimeResult& r : results) {
    table.AddRow({r.name, pm::FormatF(r.spread_before, 2),
                  pm::FormatF(r.spread_after, 2),
                  pm::FormatPct(1.0 - r.spread_after /
                                          std::max(r.spread_before, 1e-9),
                                1),
                  r.settle_rate > 0 ? pm::FormatPct(r.settle_rate, 1)
                                    : std::string("n/a"),
                  std::to_string(r.moves)});
  }
  std::cout << table.Render() << '\n'
            << "shape check: utilization-weighted reserves (phi1/phi2/"
               "phi3) cut cross-pool dispersion more than flat reserves; "
               "the traditional quota regime barely moves it\n";
  return 0;
}
