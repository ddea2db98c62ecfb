// Cross-shard arbitrage ablation: does the federation arbitrageur pull
// shard clearing prices together?
//
// Two shards are generated hot and cool (same recipe otherwise), so their
// congestion-weighted reserve prices start far apart. The same federation
// then runs twice from identical seeds:
//
//   baseline   — economy layer off (the plain PR 2 path);
//   arbitrage  — treasury + ArbitrageAgent on: each epoch it buys
//                capacity in the cheap shard (occupying it, which raises
//                that shard's utilization and therefore its reserve) and
//                resells warehoused holdings once local prices clear its
//                cost basis.
//
// The per-epoch cross-shard clearing-price spread (max−min)/min, mean
// over resource kinds — federation/arbitrage.h's ComputeClearingSpread,
// the same number RunEpoch stamps on every report — should shrink across
// epochs with arbitrage and stay comparatively flat without.
//
// Writes both series, the shrinkage verdicts and machine-collected host
// metadata to --out (default BENCH_arbitrage_spread.json in the working
// directory). A git-tracked --out is refused with exit 73 before any
// work.
//
//   $ ./bench_arbitrage_spread [teams_per_shard] [epochs] [--out FILE]
//   defaults: 40 teams/shard, 8 epochs
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/bench_meta.h"
#include "common/table.h"
#include "federation/federated_exchange.h"

namespace {

std::vector<pm::federation::ShardSpec> HotCoolShards(int teams_per_shard) {
  std::vector<pm::federation::ShardSpec> specs;
  for (int k = 0; k < 2; ++k) {
    pm::federation::ShardSpec spec;
    spec.name = k == 0 ? "hot" : "cool";
    spec.workload.num_teams = teams_per_shard;
    spec.workload.num_clusters = 6;
    spec.workload.min_machines_per_cluster = 16;
    spec.workload.max_machines_per_cluster = 32;
    if (k == 0) {
      spec.workload.min_target_utilization = 0.80;
      spec.workload.max_target_utilization = 0.95;
    } else {
      spec.workload.min_target_utilization = 0.08;
      spec.workload.max_target_utilization = 0.25;
    }
    spec.market.auction.alpha = 0.4;
    spec.market.auction.delta = 0.08;
    spec.market.auction.max_rounds = 30000;
    specs.push_back(std::move(spec));
  }
  return specs;
}

struct EpochStats {
  double spread = 0.0;
  std::size_t buys = 0;
  std::size_t sells = 0;
  double warehouse = 0.0;
  double realized_pnl = 0.0;
};

std::vector<EpochStats> RunSpreadSeries(int teams_per_shard, int epochs,
                                        bool with_arbitrage,
                                        unsigned num_threads) {
  pm::federation::FederationConfig config;
  config.seed = 20090425;
  config.num_threads = num_threads;
  if (with_arbitrage) {
    config.economy.treasury = true;
    config.economy.arbitrage.enabled = true;
    config.economy.arbitrage.margin = pm::Money::FromDollars(2000000);
    config.economy.arbitrage.min_spread = 0.05;
    config.economy.arbitrage.min_margin = 0.05;
    config.economy.arbitrage.buy_fraction = 0.25;
  }
  pm::federation::FederatedExchange fed(HotCoolShards(teams_per_shard),
                                        config);
  std::vector<EpochStats> stats;
  stats.reserve(epochs);
  for (int e = 0; e < epochs; ++e) {
    const pm::federation::FederationReport report = fed.RunEpoch();
    EpochStats s;
    s.spread = report.clearing_spread;
    s.buys = report.arbitrage.buys_planned;
    s.sells = report.arbitrage.sells_planned;
    s.warehouse = report.arbitrage.holdings_units;
    s.realized_pnl = report.arbitrage.realized_pnl;
    stats.push_back(s);
  }
  return stats;
}

std::string SeriesJson(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out += pm::FormatF(xs[i], 4);
    if (i + 1 < xs.size()) out += ", ";
  }
  return out + "]";
}

/// Fraction of epoch-over-epoch steps that do not widen the spread
/// (allowing a small tolerance for resident-agent noise). Measured from
/// epoch 1: epoch 0 has no prior clearing prices, so the arbitrageur
/// necessarily sits it out.
double NonWideningFraction(const std::vector<double>& xs) {
  if (xs.size() < 3) return 1.0;
  int ok = 0, steps = 0;
  for (std::size_t i = 2; i < xs.size(); ++i) {
    ++steps;
    if (xs[i] <= xs[i - 1] + 1e-9) ++ok;
  }
  return steps > 0 ? static_cast<double>(ok) / steps : 1.0;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned threads = pm::ParseOrExit(
      pm::kUsageExit, [&] { return pm::ParseThreadsFlag(&argc, argv, 0); });
  std::string out_path = "BENCH_arbitrage_spread.json";
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      positional.push_back(arg);
    }
  }
  const int teams = pm::ParseOrExit(pm::kUsageExit, [&] {
    return positional.size() > 0
               ? pm::ParseNumberArg("teams_per_shard", positional[0], 4)
               : 40;
  });
  const int epochs = pm::ParseOrExit(pm::kUsageExit, [&] {
    return positional.size() > 1
               ? pm::ParseNumberArg("epochs", positional[1], 2)
               : 8;
  });
  if (pm::RefuseTrackedOutput(out_path)) return pm::kRefusedOutputExit;

  std::cout << "running " << epochs << " epochs x " << teams
            << " teams/shard, baseline vs arbitrage...\n";
  const std::vector<EpochStats> base_stats =
      RunSpreadSeries(teams, epochs, /*with_arbitrage=*/false, threads);
  const std::vector<EpochStats> arb_stats =
      RunSpreadSeries(teams, epochs, /*with_arbitrage=*/true, threads);
  std::vector<double> baseline, arbitrage;
  for (const EpochStats& s : base_stats) baseline.push_back(s.spread);
  for (const EpochStats& s : arb_stats) arbitrage.push_back(s.spread);

  pm::TextTable table({"epoch", "spread (baseline)", "spread (arbitrage)",
                       "arb buys", "arb sells", "warehouse"});
  for (int e = 0; e < epochs; ++e) {
    table.AddRow({std::to_string(e), pm::FormatF(baseline[e], 4),
                  pm::FormatF(arbitrage[e], 4),
                  std::to_string(arb_stats[e].buys),
                  std::to_string(arb_stats[e].sells),
                  pm::FormatF(arb_stats[e].warehouse, 1)});
  }
  std::cout << table.Render();

  const double base_drop = baseline.front() - baseline.back();
  const double arb_drop = arbitrage.front() - arbitrage.back();
  const bool converges = arbitrage.back() < baseline.back();
  std::cout << "baseline spread " << pm::FormatF(baseline.front(), 4)
            << " -> " << pm::FormatF(baseline.back(), 4)
            << ", arbitrage " << pm::FormatF(arbitrage.front(), 4)
            << " -> " << pm::FormatF(arbitrage.back(), 4)
            << (converges ? " (arbitrage converges prices)\n"
                          : " (NO convergence advantage)\n");

  std::ofstream json(out_path);
  json << "{\n  \"benchmark\": \"arbitrage_spread\",\n";
  json << "  \"metadata\": {\n"
       << "    \"teams_per_shard\": " << teams << ",\n"
       << "    \"epochs\": " << epochs << ",\n"
       << "    \"shards\": 2,\n"
       << "    \"host\": " << pm::HostMetadataJson() << "\n  },\n";
  json << "  \"baseline_spread\": " << SeriesJson(baseline) << ",\n";
  json << "  \"arbitrage_spread\": " << SeriesJson(arbitrage) << ",\n";
  json << "  \"baseline_drop\": " << pm::FormatF(base_drop, 4) << ",\n";
  json << "  \"arbitrage_drop\": " << pm::FormatF(arb_drop, 4) << ",\n";
  json << "  \"arbitrage_non_widening_fraction\": "
       << pm::FormatF(NonWideningFraction(arbitrage), 3) << ",\n";
  json << "  \"arbitrage_realized_pnl\": "
       << pm::FormatF(arb_stats.back().realized_pnl, 2) << ",\n";
  json << "  \"arbitrage_warehouse_units\": "
       << pm::FormatF(arb_stats.back().warehouse, 1) << ",\n";
  json << "  \"arbitrage_ends_tighter_than_baseline\": "
       << (converges ? "true" : "false") << "\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
