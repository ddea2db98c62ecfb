// Reproduces Figure 7: "Utilization percentiles of resources in settled
// transactions" — boxplots of the pre-auction utilization percentile of
// the cluster behind every settled trade, broken down by resource
// dimension × bid/offer.
//
// Paper shape to match: "most bids were for resources in underutilized
// clusters and most offers were for resources in overutilized clusters"
// (bid medians low, offer medians high), with a significant number of
// high-percentile *bid* outliers — teams paying a premium to keep
// growing in congested clusters.
#include <fstream>
#include <iostream>
#include <vector>
#include <memory>

#include "agents/workload_gen.h"
#include "common/ascii_chart.h"
#include "common/table.h"
#include "exchange/market.h"
#include "stats/descriptive.h"
#include "common/bench_meta.h"
#include "common/thread_pool.h"

// Usage: fig7_utilization_percentiles [out.csv] — the optional argument
// also dumps every trade sample as CSV for external plotting.
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

  // Aggregate trades over two auctions for a fuller sample, as the
  // paper's figure aggregates settled transactions of an auction round.
  market.RunAuction();
  market.RunAuction();

  std::cout << "=== Figure 7: utilization percentile of settled trades "
               "===\n\n";

  pm::TextTable table({"cell", "n", "whisk-lo", "q1", "median", "q3",
                       "whisk-hi", "outliers"});
  std::vector<pm::BoxplotSpec> specs;
  for (pm::ResourceKind kind : pm::kAllResourceKinds) {
    for (const bool is_bid : {true, false}) {
      std::vector<double> samples;
      for (const pm::exchange::AuctionReport& report : market.History()) {
        const auto part =
            pm::exchange::TradePercentiles(report, kind, is_bid);
        samples.insert(samples.end(), part.begin(), part.end());
      }
      const std::string label = std::string(pm::ToString(kind)) +
                                (is_bid ? " bids" : " offers");
      if (samples.empty()) {
        table.AddRow({label, "0", "-", "-", "-", "-", "-", "-"});
        continue;
      }
      const pm::stats::BoxplotSummary box = pm::stats::Boxplot(samples);
      table.AddRow({label, std::to_string(box.n),
                    pm::FormatF(box.whisker_lo, 1),
                    pm::FormatF(box.q1, 1), pm::FormatF(box.median, 1),
                    pm::FormatF(box.q3, 1),
                    pm::FormatF(box.whisker_hi, 1),
                    std::to_string(box.outliers.size())});
      pm::BoxplotSpec spec;
      spec.label = label;
      spec.whisker_lo = box.whisker_lo;
      spec.q1 = box.q1;
      spec.median = box.median;
      spec.q3 = box.q3;
      spec.whisker_hi = box.whisker_hi;
      spec.outliers = box.outliers;
      specs.push_back(std::move(spec));
    }
  }
  std::cout << table.Render() << '\n';

  pm::ChartOptions options;
  options.title = "utilization percentile (0-100) of settled trades";
  options.width = 64;
  std::cout << RenderBoxplots(specs, options) << '\n';

  // Aggregate shape check across all dimensions.
  std::vector<double> bid_pct, offer_pct;
  for (const pm::exchange::AuctionReport& report : market.History()) {
    for (const pm::exchange::TradeSample& t : report.trades) {
      (t.is_bid ? bid_pct : offer_pct).push_back(t.util_percentile);
    }
  }
  if (!bid_pct.empty() && !offer_pct.empty()) {
    std::cout << "shape check: median bid percentile "
              << pm::FormatF(pm::stats::Median(bid_pct), 1)
              << " < median offer percentile "
              << pm::FormatF(pm::stats::Median(offer_pct), 1)
              << "  (paper: bids target underutilized clusters, offers "
                 "vacate overutilized ones)\n";
  }

  if (argc > 1) {
    std::ofstream csv_file(argv[1]);
    pm::CsvWriter csv(csv_file);
    csv.WriteRow({"auction", "kind", "side", "util_percentile", "qty",
                  "team"});
    for (const pm::exchange::AuctionReport& report : market.History()) {
      for (const pm::exchange::TradeSample& t : report.trades) {
        csv.WriteRow({std::to_string(report.auction_index + 1),
                      std::string(pm::ToString(t.kind)),
                      t.is_bid ? "bid" : "offer",
                      pm::FormatF(t.util_percentile, 4),
                      pm::FormatF(t.qty, 4), t.team});
      }
    }
    std::cout << "wrote " << argv[1] << '\n';
  }
  return 0;
}
