// Reproduces the §III.C design argument: exact (VCG-style) winner
// determination is ruled out as computationally intractable, while the
// clock auction "execution time scales linearly" and, when it converges,
// lands on a feasible — but not necessarily optimal — point.
//
// For growing user counts this bench runs, on identical markets:
//   * exact branch-and-bound WDP        (optimal surplus, exponential)
//   * ascending clock auction           (feasible, linear)
//   * greedy pay-as-bid                 (heuristic, no uniform prices)
// and reports declared surplus, efficiency vs optimal, and work done.
//
// Shape to match: WDP nodes explode exponentially with U while the clock
// auction's demand evaluations grow linearly; clock efficiency stays
// high (typically >85 %) but is not pinned at 100 %.
#include <chrono>
#include <iostream>
#include <memory>

#include "auction/clock_auction.h"
#include "auction/greedy.h"
#include "auction/wdp_exact.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/bench_meta.h"
#include "common/thread_pool.h"

namespace {

struct Instance {
  std::vector<pm::bid::Bid> bids;
  std::vector<double> supply;
  std::vector<double> reserve;
};

Instance MakeInstance(std::uint64_t seed, int num_users) {
  pm::RandomStream rng(seed);
  constexpr std::size_t kPools = 4;
  Instance inst;
  inst.supply.assign(kPools, 0.0);
  inst.reserve.assign(kPools, 1.0);
  for (std::size_t r = 0; r < kPools; ++r) {
    inst.supply[r] = rng.Uniform(4.0, 10.0);
  }
  for (int u = 0; u < num_users; ++u) {
    pm::bid::Bid b;
    b.user = static_cast<pm::UserId>(u);
    b.name = "u" + std::to_string(u);
    const int bundles = static_cast<int>(rng.UniformInt(1, 2));
    double best_cost = 0.0;
    for (int k = 0; k < bundles; ++k) {
      const auto pool =
          static_cast<pm::PoolId>(rng.UniformInt(0, kPools - 1));
      const double qty = rng.Uniform(1.0, 4.0);
      b.bundles.push_back(
          pm::bid::Bundle({pm::bid::BundleItem{pool, qty}}));
      best_cost = std::max(best_cost, qty * inst.reserve[pool]);
    }
    b.limit = best_cost * rng.Uniform(1.0, 4.0);
    inst.bids.push_back(std::move(b));
  }
  pm::bid::AssignUserIds(inst.bids);
  return inst;
}

double Ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned threads = pm::ParseOrExit(
      pm::kUsageExit, [&] { return pm::ParseThreadsFlag(&argc, argv, 0); });
  // --threads: size of the shared auction pool (0/1 = serial).
  std::unique_ptr<pm::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<pm::ThreadPool>(threads);

  std::cout << "=== Baseline comparison: exact WDP vs clock auction vs "
               "greedy ===\n\n";
  pm::TextTable table({"users", "wdp surplus", "wdp nodes", "wdp ms",
                       "clock surplus", "clock effcy", "clock evals",
                       "clock ms", "greedy surplus", "greedy effcy"});

  for (const int users : {6, 8, 10, 12, 14, 16, 18, 20}) {
    // Average over a few seeds to smooth instance luck.
    double wdp_surplus = 0, clock_surplus = 0, greedy_surplus = 0;
    long long wdp_nodes = 0, clock_evals = 0;
    double wdp_ms = 0, clock_ms = 0;
    const int kSeeds = 3;
    for (int s = 0; s < kSeeds; ++s) {
      const Instance inst =
          MakeInstance(7000 + static_cast<std::uint64_t>(s), users);

      auto t0 = std::chrono::steady_clock::now();
      const pm::auction::WdpResult wdp =
          pm::auction::SolveWdpExact(inst.bids, inst.supply);
      wdp_ms += Ms(t0);
      wdp_surplus += wdp.total_surplus;
      wdp_nodes += wdp.nodes_expanded;

      pm::auction::ClockAuction auction(inst.bids, inst.supply,
                                        inst.reserve);
      pm::auction::ClockAuctionConfig config;
      config.alpha = 0.4;
      config.delta = 0.05;
      config.thread_pool = pool.get();
      t0 = std::chrono::steady_clock::now();
      const pm::auction::ClockAuctionResult r = auction.Run(config);
      clock_ms += Ms(t0);
      clock_evals += r.demand_evaluations;
      std::vector<int> chosen(inst.bids.size(), -1);
      for (std::size_t u = 0; u < inst.bids.size(); ++u) {
        chosen[u] = r.decisions[u].bundle_index;
      }
      clock_surplus += pm::auction::DeclaredSurplus(inst.bids, chosen);

      const pm::auction::GreedyResult greedy =
          pm::auction::SolveGreedy(inst.bids, inst.supply);
      greedy_surplus += greedy.total_surplus;
    }
    table.AddRow(
        {std::to_string(users), pm::FormatF(wdp_surplus / kSeeds, 1),
         std::to_string(wdp_nodes / kSeeds),
         pm::FormatF(wdp_ms / kSeeds, 2),
         pm::FormatF(clock_surplus / kSeeds, 1),
         pm::FormatPct(clock_surplus / wdp_surplus, 1),
         std::to_string(clock_evals / kSeeds),
         pm::FormatF(clock_ms / kSeeds, 2),
         pm::FormatF(greedy_surplus / kSeeds, 1),
         pm::FormatPct(greedy_surplus / wdp_surplus, 1)});
  }
  std::cout << table.Render() << '\n'
            << "shape check: WDP nodes grow exponentially in users while "
               "clock demand evaluations grow ~linearly;\n"
            << "             clock efficiency is high but below 100% "
               "(it satisfies SYSTEM, it does not optimize f — "
               "§III.C.4)\n";
  return 0;
}
