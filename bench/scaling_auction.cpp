// Verifies §III.C.4: "All else being equal, the execution time scales
// linearly in the number of participants and the number of resources.
// Solving for the prices in our experimental resource auction (having
// around 100 bidders and 100 system-level resources) took only a few
// minutes [in Python] … Optimized code written in a lower-level language
// could reduce this by at least one order of magnitude."
//
//   bench_scaling_auction [--smoke]
//
// Four sections, one table row per point: U (users) swept at R = 100
// pools, R swept at U = 100 (both on a never-clears market with a fixed
// 100-round budget, so the round count is pinned), the paper's own
// ~100 × ~100 market run to convergence, and parallel proxy evaluation
// at 1, 2 and 4 threads. Wall is the steady_clock median of 5 runs; the
// work counters (demand evaluations, re-evaluated proxies, full and
// incremental collections) are deterministic and explain where the wall
// curve bends. The wall OLS fits are printed, not gated.
//
// The exit code is the check, in the unit the paper's claim is counted
// in (ClockAuctionResult::demand_evaluations): 1 unless every
// never-clears point ran exactly 100 rounds with users × 100 demand
// evaluations (per-round work linear in users, independent of pools), and
// the paper-scale market discovered prices (more than one round,
// converged, at least one pool above reserve). --smoke stops the users
// sweep at 1,600 and the pools sweep at 200, and runs the parallel
// section at 800 users only.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "auction/clock_auction.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "stats/regression.h"

namespace {

/// Fixed round budget of the never-clears sweeps.
constexpr int kFixedRounds = 100;

/// Builds a market with `users` bidders over `pools` pools where per-user
/// work is constant (one or two single-item bundles each, XOR). With
/// `never_clears`, limits are effectively unbounded and supply is scarce,
/// so the clock runs exactly max_rounds rounds — §III.C.4's "all else
/// being equal": the round count is pinned and total time isolates the
/// per-round Θ(users + pools) work. Otherwise the operator sells a
/// quarter of the expected per-pool demand at reserve (a bidder wants one
/// item of mean quantity 2.5), so prices must climb to clear, as in
/// planetbench's clock-dense book.
pm::auction::ClockAuction MakeMarket(int users, int pools,
                                     std::uint64_t seed,
                                     bool never_clears) {
  pm::RandomStream rng(seed);
  const double per_pool_demand = users * 2.5 / pools;
  std::vector<double> supply(static_cast<std::size_t>(pools),
                             never_clears ? 0.5 : 0.25 * per_pool_demand);
  std::vector<double> reserve(static_cast<std::size_t>(pools));
  for (auto& r : reserve) r = rng.Uniform(0.5, 3.0);
  std::vector<pm::bid::Bid> bids;
  bids.reserve(static_cast<std::size_t>(users));
  for (int u = 0; u < users; ++u) {
    pm::bid::Bid b;
    b.user = static_cast<pm::UserId>(u);
    b.name = "u" + std::to_string(u);
    const int bundles = 1 + (u % 2);
    double cost = 0.0;
    for (int k = 0; k < bundles; ++k) {
      const auto pool =
          static_cast<pm::PoolId>(rng.UniformInt(0, pools - 1));
      const double qty = rng.Uniform(1.0, 4.0);
      b.bundles.push_back(
          pm::bid::Bundle({pm::bid::BundleItem{pool, qty}}));
      cost = std::max(cost, qty * reserve[pool]);
    }
    b.limit = never_clears ? 1e18 : cost * rng.Uniform(1.2, 3.0);
    bids.push_back(std::move(b));
  }
  pm::bid::AssignUserIds(bids);
  return pm::auction::ClockAuction(std::move(bids), std::move(supply),
                                   std::move(reserve));
}

pm::auction::ClockAuctionConfig BenchConfig(bool fixed_rounds) {
  pm::auction::ClockAuctionConfig config;
  config.alpha = 0.4;
  config.delta = 0.08;
  if (fixed_rounds) config.max_rounds = kFixedRounds;
  return config;
}

/// One measured point: the median wall of 5 runs and the (deterministic)
/// result of the last one.
struct Point {
  double wall_ms = 0.0;
  pm::auction::ClockAuctionResult result;
};

Point Measure(const pm::auction::ClockAuction& market,
              const pm::auction::ClockAuctionConfig& config) {
  Point point;
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    point.result = market.Run(config);
    samples.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
  }
  std::sort(samples.begin(), samples.end());
  point.wall_ms = samples[samples.size() / 2];
  return point;
}

void AddRow(pm::TextTable& table, const char* section, int users,
            int pools, std::size_t threads, const Point& p) {
  const pm::auction::ClockAuctionResult& r = p.result;
  table.AddRow({section, std::to_string(users), std::to_string(pools),
                std::to_string(threads), pm::FormatF(p.wall_ms, 3),
                std::to_string(r.rounds),
                std::to_string(r.demand_evaluations),
                std::to_string(r.proxies_reevaluated),
                std::to_string(r.full_collections),
                std::to_string(r.incremental_collections),
                r.converged ? "yes" : "no"});
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: bench_scaling_auction [--smoke]\n");
      return 64;
    }
  }

  pm::TextTable table({"section", "users", "pools", "threads", "wall ms",
                       "rounds", "demand evals", "re-evaluated", "full",
                       "incremental", "converged"});
  // Every never-clears point must run the whole budget with exactly one
  // demand evaluation per user per round.
  bool linear_work = true;
  auto fixed_point = [&](const char* section, int users, int pools,
                         std::uint64_t seed, std::size_t threads) {
    const pm::auction::ClockAuction market =
        MakeMarket(users, pools, seed, /*never_clears=*/true);
    std::unique_ptr<pm::ThreadPool> pool;
    pm::auction::ClockAuctionConfig config =
        BenchConfig(/*fixed_rounds=*/true);
    if (threads > 1) {
      pool = std::make_unique<pm::ThreadPool>(threads);
      config.thread_pool = pool.get();
    }
    const Point p = Measure(market, config);
    linear_work = linear_work && p.result.rounds == kFixedRounds &&
                  p.result.demand_evaluations ==
                      static_cast<long long>(users) * kFixedRounds;
    AddRow(table, section, users, pools, threads, p);
    return p.wall_ms;
  };

  std::vector<double> users_x, users_ms;
  for (const int users :
       {25, 50, 100, 200, 400, 800, 1600, 6400, 25600, 100000}) {
    if (smoke && users > 1600) break;
    users_x.push_back(users);
    users_ms.push_back(fixed_point("users", users, 100, 7, 1));
  }
  table.AddRule();
  std::vector<double> pools_x, pools_ms;
  for (const int pools : {25, 50, 100, 200, 400, 800}) {
    if (smoke && pools > 200) break;
    pools_x.push_back(pools);
    pools_ms.push_back(fixed_point("pools", 100, pools, 11, 1));
  }
  table.AddRule();

  // The paper's own experimental scale, run to convergence.
  const pm::auction::ClockAuction paper =
      MakeMarket(100, 100, 13, /*never_clears=*/false);
  const Point paper_point =
      Measure(paper, BenchConfig(/*fixed_rounds=*/false));
  AddRow(table, "paper scale", 100, 100, 1, paper_point);
  table.AddRule();
  const std::vector<double>& paper_reserve = paper.reserve_prices();
  int above_reserve = 0;
  for (std::size_t r = 0; r < paper_reserve.size(); ++r) {
    if (paper_point.result.prices[r] > paper_reserve[r]) ++above_reserve;
  }
  const bool paper_discovered = paper_point.result.rounds > 1 &&
                                paper_point.result.converged &&
                                above_reserve > 0;

  // Parallel proxy evaluation (line 4 fan-out across a thread pool), at a
  // size where the pool loses and one where it wins.
  for (const int users : {800, 25600}) {
    if (smoke && users > 800) break;
    for (const std::size_t threads : {1, 2, 4}) {
      fixed_point("parallel", users, 100, 17, threads);
    }
  }

  std::cout << "=== §III.C.4 scaling: clock auction work and wall time "
               "vs users and pools ===\n\n"
            << table.Render() << '\n';
  const pm::stats::LinearFit fit_users =
      pm::stats::FitLinear(users_x, users_ms);
  const pm::stats::LinearFit fit_pools =
      pm::stats::FitLinear(pools_x, pools_ms);
  std::printf(
      "wall fit (reported, not gated): time ~ users R^2 = %.4f, "
      "time ~ pools R^2 = %.4f\n",
      fit_users.r_squared, fit_pools.r_squared);
  std::printf(
      "check: every fixed-budget point ran %d rounds with users x %d "
      "demand evaluations: %s\n",
      kFixedRounds, kFixedRounds, linear_work ? "yes" : "NO");
  std::printf(
      "check: paper scale discovered prices (%d rounds, %s, %d/100 pools "
      "above reserve): %s\n",
      paper_point.result.rounds,
      paper_point.result.converged ? "converged" : "not converged",
      above_reserve, paper_discovered ? "yes" : "NO");
  return linear_work && paper_discovered ? 0 : 1;
}
