// Reproduces Figure 6: "Change in resource prices after auction" — the
// settled market price over the former fixed price, per cluster and
// resource dimension, for the first auction of a market seeded with a
// wide utilization spread (the paper's 34-cluster experiment).
//
// Paper shape to match: congested clusters clear above 1.0× (up to ≈2×),
// under-utilized clusters at or below their discounted reserves (<1.0×),
// with the ratio ordered by congestion and all three dimensions moving
// together.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <vector>
#include <memory>

#include "agents/workload_gen.h"
#include "common/ascii_chart.h"
#include "common/table.h"
#include "exchange/market.h"
#include "common/bench_meta.h"
#include "common/thread_pool.h"

// Usage: fig6_price_changes [out.csv] — the optional argument also dumps
// the series as CSV for external plotting.
int main(int argc, char** argv) {
  const unsigned threads = pm::ParseOrExit(
      pm::kUsageExit, [&] { return pm::ParseThreadsFlag(&argc, argv, 0); });
  // --threads: size of the shared auction pool (0/1 = serial).
  std::unique_ptr<pm::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<pm::ThreadPool>(threads);

  pm::agents::WorkloadConfig workload;
  workload.num_clusters = 34;          // The paper's cluster count.
  workload.num_teams = 100;            // "around 100 bidders".
  workload.seed = 20090425;            // IPDPS 2009.
  pm::agents::World world = GenerateWorld(workload);

  pm::exchange::MarketConfig config;
  config.auction.alpha = 0.4;
  config.auction.delta = 0.08;
  config.auction.thread_pool = pool.get();
  pm::exchange::Market market(&world.fleet, &world.agents,
                              world.fixed_prices, config);

  std::cout << "=== Figure 6: market price / former fixed price, after "
               "auction 1 ===\n"
            << "(" << workload.num_clusters << " clusters x {CPU, RAM, "
               "disk} = "
            << world.fleet.NumPools() << " pools, "
            << workload.num_teams << " teams)\n\n";

  const pm::exchange::AuctionReport report = market.RunAuction();
  const std::vector<double> ratios = pm::exchange::PriceRatios(report);
  const pm::PoolRegistry& registry = world.fleet.registry();

  // One row per cluster, sorted by pre-auction CPU utilization so the
  // congestion ordering is visible (the paper's r1..r34 are anonymized).
  struct Row {
    std::string cluster;
    double util_cpu;
    double cpu, ram, disk;
  };
  std::vector<Row> rows;
  for (const std::string& cluster_name : world.fleet.ClusterNames()) {
    Row row;
    row.cluster = cluster_name;
    const auto cpu =
        registry.Find(pm::PoolKey{cluster_name, pm::ResourceKind::kCpu});
    const auto ram =
        registry.Find(pm::PoolKey{cluster_name, pm::ResourceKind::kRam});
    const auto disk =
        registry.Find(pm::PoolKey{cluster_name, pm::ResourceKind::kDisk});
    row.util_cpu = report.pre_utilization[*cpu];
    row.cpu = ratios[*cpu];
    row.ram = ratios[*ram];
    row.disk = ratios[*disk];
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.util_cpu < b.util_cpu;
  });

  pm::TextTable table({"cluster", "pre-util cpu", "CPU ratio",
                       "RAM ratio", "Disk ratio"});
  int above_one = 0, below_one = 0;
  for (const Row& row : rows) {
    table.AddRow({row.cluster, pm::FormatPct(row.util_cpu, 1),
                  pm::FormatF(row.cpu, 3), pm::FormatF(row.ram, 3),
                  pm::FormatF(row.disk, 3)});
    if (row.cpu > 1.0) ++above_one;
    if (row.cpu < 1.0) ++below_one;
  }
  std::cout << table.Render() << '\n';

  if (argc > 1) {
    std::ofstream csv_file(argv[1]);
    pm::CsvWriter csv(csv_file);
    csv.WriteRow({"cluster", "pre_util_cpu", "cpu_ratio", "ram_ratio",
                  "disk_ratio"});
    for (const Row& row : rows) {
      csv.WriteRow({row.cluster, pm::FormatF(row.util_cpu, 6),
                    pm::FormatF(row.cpu, 6), pm::FormatF(row.ram, 6),
                    pm::FormatF(row.disk, 6)});
    }
    std::cout << "wrote " << argv[1] << '\n';
  }

  std::vector<pm::Bar> bars;
  for (const Row& row : rows) {
    bars.push_back(pm::Bar{row.cluster, row.cpu});
  }
  pm::ChartOptions options;
  options.title =
      "CPU market/fixed price ratio per cluster (sorted by pre-auction "
      "utilization; ':' marks 1.0)";
  std::cout << RenderBarChart(bars, options, 1.0) << '\n';

  const double max_ratio =
      std::max_element(rows.begin(), rows.end(),
                       [](const Row& a, const Row& b) {
                         return a.cpu < b.cpu;
                       })
          ->cpu;
  std::cout << "shape check: " << below_one
            << " clusters cleared below 1.0x (under-utilized), "
            << above_one << " above 1.0x (congested); max CPU ratio "
            << pm::FormatF(max_ratio, 2) << "x (paper: up to ~2x)\n"
            << "auction: " << report.rounds << " rounds, "
            << report.num_bids << " bids, "
            << pm::FormatPct(report.settled_fraction, 1) << " settled\n";
  return 0;
}
