// Planet-wide economy demo: treasury, cross-shard arbitrage, and fleet
// rebalancing over a federated exchange.
//
// Three regional market shards are generated with deliberately skewed
// utilization (one hot, two cool), so their congestion-weighted clearing
// prices start far apart. The economy layer then works on the gap from
// three directions at once:
//
//   * the treasury funds a planet-wide team from ONE currency pool:
//     per-shard allowances are pushed before every epoch and swept back
//     after it, so money is conserved modulo the explicit mints shown in
//     the treasury page;
//   * the arbitrage agent buys capacity where the previous epoch cleared
//     cheap and resells its warehouse where prices have risen;
//   * the rebalancer migrates a whole cluster from the coolest shard to
//     the hottest once the utilization gap has persisted two epochs.
//
//   $ ./federation_economy [epochs] [teams_per_shard]
#include <iostream>

#include "common/bench_meta.h"
#include "federation/federated_exchange.h"

int main(int argc, char** argv) {
  const int epochs = pm::ParseOrExit(pm::kUsageExit, [&] {
    return argc > 1 ? pm::ParseNumberArg("epochs", argv[1], 1) : 6;
  });
  const int teams = pm::ParseOrExit(pm::kUsageExit, [&] {
    return argc > 2 ? pm::ParseNumberArg("teams_per_shard", argv[2], 4)
                    : 24;
  });

  std::vector<pm::federation::ShardSpec> specs;
  for (int k = 0; k < 3; ++k) {
    pm::federation::ShardSpec spec;
    spec.name = "region-" + std::to_string(k);
    spec.workload.num_teams = teams;
    spec.workload.num_clusters = 6;
    spec.workload.min_machines_per_cluster = 16;
    spec.workload.max_machines_per_cluster = 32;
    if (k == 0) {
      spec.workload.min_target_utilization = 0.80;
      spec.workload.max_target_utilization = 0.95;
    } else {
      spec.workload.min_target_utilization = 0.10;
      spec.workload.max_target_utilization = 0.30;
    }
    spec.market.auction.alpha = 0.4;
    spec.market.auction.delta = 0.08;
    specs.push_back(std::move(spec));
  }

  pm::federation::FederationConfig config;
  config.seed = 20090425;
  config.economy.treasury = true;
  config.economy.arbitrage.enabled = true;
  config.economy.arbitrage.margin = pm::Money::FromDollars(1000000);
  config.economy.arbitrage.min_spread = 0.05;
  config.economy.arbitrage.buy_fraction = 0.20;
  config.economy.rebalance.enabled = true;
  config.economy.rebalance.spread_threshold = 0.25;
  config.economy.rebalance.consecutive_epochs = 2;

  pm::federation::FederatedExchange fed(std::move(specs), config);

  // One planet-wide team, one planet-wide budget: the treasury mints
  // 3 × $400k and pushes/sweeps per-shard allowances each epoch.
  fed.EndowFederatedTeam("globex", pm::Money::FromDollars(400000));

  for (int e = 0; e < epochs; ++e) {
    for (int b = 0; b < 2; ++b) {
      pm::federation::FederatedBid bid;
      bid.team = "globex";
      bid.tag = "wave" + std::to_string(e) + "-" + std::to_string(b);
      bid.quantity = pm::cluster::TaskShape{24.0, 96.0, 3.0};
      bid.limit = 60000.0;
      fed.SubmitFederatedBid(bid);
    }
    const pm::federation::FederationReport report = fed.RunEpoch();
    std::cout << '\n' << RenderFederationSummary(report);
  }

  std::cout << '\n' << fed.treasury()->Render();
  std::cout << "arbitrage warehouse: "
            << fed.arbitrageur()->TotalHoldingsUnits()
            << " units, realized P&L $"
            << fed.arbitrageur()->RealizedPnl() << "\n";
  return 0;
}
