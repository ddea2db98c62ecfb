// Federated planet-wide market: many local markets, one exchange.
//
// Builds a federation of per-region market shards (each a full
// planetmarket world: fleet, teams, ledger, reserve pricer), funds a
// planet-wide team, and routes its demand across regions under different
// policies while the regional auctions clear concurrently. After each
// epoch the planet-wide summary page shows what an operator would read:
// per-shard clearing, routing/spill decisions, and fleet health across
// every pool on the planet.
//
//   $ ./federated_market [num_shards] [teams_per_shard] [epochs]
#include <iostream>

#include "common/bench_meta.h"
#include "common/table.h"
#include "federation/federated_exchange.h"

int main(int argc, char** argv) {
  const int num_shards = pm::ParseOrExit(pm::kUsageExit, [&] {
    return argc > 1 ? pm::ParseNumberArg("num_shards", argv[1], 1) : 4;
  });
  const int teams_per_shard = pm::ParseOrExit(pm::kUsageExit, [&] {
    return argc > 2 ? pm::ParseNumberArg("teams_per_shard", argv[2], 1)
                    : 40;
  });
  const int epochs = pm::ParseOrExit(pm::kUsageExit, [&] {
    return argc > 3 ? pm::ParseNumberArg("epochs", argv[3], 1) : 3;
  });

  std::vector<pm::federation::ShardSpec> specs;
  for (int k = 0; k < num_shards; ++k) {
    pm::federation::ShardSpec spec;
    spec.name = "region-" + std::to_string(k);
    spec.workload.num_clusters = 8;
    spec.workload.num_teams = teams_per_shard;
    spec.workload.min_machines_per_cluster = 20;
    spec.workload.max_machines_per_cluster = 40;
    if (k == 0) {
      // globex's home region runs uniformly hot: congestion-weighted
      // reserves there will quote above the spill threshold, so its
      // demand migrates to the cooler regions.
      spec.workload.min_target_utilization = 0.88;
      spec.workload.max_target_utilization = 0.96;
    }
    spec.market.auction.alpha = 0.4;
    spec.market.auction.delta = 0.08;
    specs.push_back(std::move(spec));
  }

  pm::federation::FederationConfig config;
  config.seed = 20090425;
  config.num_threads = 4;
  config.router.policy = pm::federation::RoutingPolicy::kHomeAffinity;
  config.router.spill_threshold = 1.8;

  std::cout << "building " << num_shards << " market shards of "
            << teams_per_shard << " teams each...\n";
  pm::federation::FederatedExchange fed(std::move(specs), config);

  // A planet-wide team with budget in every regional market. Its home
  // region is deliberately the most congested-looking one so the spill
  // policy has something to do.
  fed.EndowFederatedTeam("globex", pm::Money::FromDollars(2000000));

  for (int e = 0; e < epochs; ++e) {
    // Each epoch globex asks for capacity near its home region; the
    // router spills it to cooler regions when home prices run hot.
    for (int b = 0; b < 3; ++b) {
      pm::federation::FederatedBid bid;
      bid.team = "globex";
      bid.tag = "wave" + std::to_string(e) + "-" + std::to_string(b);
      bid.quantity = pm::cluster::TaskShape{32.0, 128.0, 4.0};
      bid.limit = 80000.0;
      bid.home_shard = "region-0";
      fed.SubmitFederatedBid(bid);
    }
    const pm::federation::FederationReport report = fed.RunEpoch();
    std::cout << '\n' << RenderFederationSummary(report);
    for (const pm::federation::RouteDecision& decision : report.routing) {
      std::cout << "  " << decision.team << '/' << decision.tag << " ["
                << ToString(decision.policy) << "] -> ";
      if (decision.shard.has_value()) {
        std::cout << fed.ShardName(*decision.shard);
      } else {
        std::cout << "unroutable";
      }
      if (decision.spilled) {
        std::cout << " (spilled off " << fed.ShardName(
                         decision.preferred_shard)
                  << ", heat " << pm::FormatF(decision.preferred_heat, 2)
                  << ")";
      }
      std::cout << '\n';
    }
  }

  std::cout << "\nglobex budget left per region:\n";
  for (std::size_t k = 0; k < fed.NumShards(); ++k) {
    std::cout << "  " << fed.ShardName(k) << ": "
              << fed.ShardMarket(k).TeamBudget("globex") << '\n';
  }
  return 0;
}
