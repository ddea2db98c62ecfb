// Ablation for the §III.C.2 price-update design choices:
//
//   * g = α·z⁺               — "often causes the prices to move too
//                              quickly in the early rounds and then too
//                              slowly in the later ones"
//   * g = min(α·z⁺, δe)      — Eq. (3)'s cap
//   * relative cap            — prose variant: "no price changes by more
//                              than some fixed fraction"
//   * cost-normalized         — the base-price normalization adjustment
//   * multiplicative          — geometric clock
// each with intra-round bisection on and off.
//
// Reports rounds to convergence, demand evaluations, and overshoot: how
// far the final prices sit above the last price at which demand still
// exceeded supply (unsold-surplus proxy). Shape: the capped policies
// dominate plain additive on rounds; bisection trades extra demand
// probes for visibly lower overshoot.
#include <iostream>
#include <memory>

#include "auction/clock_auction.h"
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

Instance MakeInstance(std::uint64_t seed) {
  pm::RandomStream rng(seed);
  constexpr std::size_t kPools = 12;
  Instance inst;
  inst.supply.assign(kPools, 0.0);
  inst.reserve.assign(kPools, 0.0);
  for (std::size_t r = 0; r < kPools; ++r) {
    inst.supply[r] = rng.Uniform(10.0, 60.0);
    inst.reserve[r] = rng.Uniform(0.5, 4.0);
  }
  for (int u = 0; u < 120; ++u) {
    pm::bid::Bid b;
    b.user = static_cast<pm::UserId>(u);
    b.name = "u" + std::to_string(u);
    const int bundles = static_cast<int>(rng.UniformInt(1, 3));
    double cost = 0.0;
    for (int k = 0; k < bundles; ++k) {
      std::vector<pm::bid::BundleItem> items;
      const int n = static_cast<int>(rng.UniformInt(1, 3));
      for (int i = 0; i < n; ++i) {
        items.push_back(pm::bid::BundleItem{
            static_cast<pm::PoolId>(rng.UniformInt(0, kPools - 1)),
            rng.Uniform(1.0, 6.0)});
      }
      pm::bid::Bundle bundle(std::move(items));
      if (bundle.Empty()) continue;
      cost = std::max(cost, bundle.Dot(inst.reserve));
      b.bundles.push_back(std::move(bundle));
    }
    if (b.bundles.empty()) continue;
    b.limit = cost * rng.Uniform(1.2, 4.0);
    inst.bids.push_back(std::move(b));
  }
  pm::bid::AssignUserIds(inst.bids);
  return inst;
}

/// Overshoot metric: mean over pools of (final price − reserve) minus the
/// same for a fine-grained reference run (δ → tiny), in percent of the
/// reference rise. 0 % = landed exactly where the fine clock lands.
double MeanPriceLevel(const std::vector<double>& prices,
                      const std::vector<double>& reserve) {
  double sum = 0.0;
  for (std::size_t r = 0; r < prices.size(); ++r) {
    sum += prices[r] - reserve[r];
  }
  return sum / static_cast<double>(prices.size());
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned threads = pm::ParseOrExit(
      pm::kUsageExit, [&] { return pm::ParseThreadsFlag(&argc, argv, 0); });
  // --threads: size of the shared auction pool (0/1 = serial).
  std::unique_ptr<pm::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<pm::ThreadPool>(threads);

  using Kind = pm::auction::ClockAuctionConfig::PolicyKind;
  std::cout << "=== Convergence ablation: price-update policies x "
               "bisection ===\n\n";

  const Instance inst = MakeInstance(1234);

  // Fine-grained reference: tiny capped steps approximate the true
  // clearing prices.
  pm::auction::ClockAuction auction(inst.bids, inst.supply, inst.reserve);
  pm::auction::ClockAuctionConfig fine;
  fine.policy_kind = Kind::kRelativeCapped;
  fine.alpha = 0.02;
  fine.delta = 0.004;
  fine.step_floor = 1e-4;
  fine.max_rounds = 2'000'000;
  const pm::auction::ClockAuctionResult reference = auction.Run(fine);
  const double reference_level =
      MeanPriceLevel(reference.prices, inst.reserve);

  struct Variant {
    const char* name;
    Kind kind;
    double alpha, delta;
  };
  const Variant variants[] = {
      {"additive a*z+", Kind::kAdditive, 0.05, 0.0},
      {"capped min(a*z+, d) [Eq.3]", Kind::kCapped, 0.4, 0.25},
      {"relative cap d*p", Kind::kRelativeCapped, 0.4, 0.08},
      {"cost-normalized", Kind::kCostNormalized, 0.4, 0.08},
      {"multiplicative", Kind::kMultiplicative, 0.4, 0.08},
  };

  pm::TextTable table({"policy", "bisection", "rounds", "demand evals",
                       "converged", "overshoot vs fine clock"});
  for (const Variant& v : variants) {
    for (const bool bisect : {false, true}) {
      pm::auction::ClockAuctionConfig config;
      config.policy_kind = v.kind;
      config.alpha = v.alpha;
      config.delta = v.delta;
      config.step_floor = 0.01;
      config.thread_pool = pool.get();
      config.intra_round_bisection = bisect;
      config.max_rounds = 200000;
      if (v.kind == Kind::kCostNormalized) {
        config.base_costs = inst.reserve;  // Reserves proxy base costs.
      }
      const pm::auction::ClockAuctionResult r = auction.Run(config);
      const double level = MeanPriceLevel(r.prices, inst.reserve);
      const double overshoot =
          reference_level > 1e-12
              ? (level - reference_level) / reference_level
              : 0.0;
      table.AddRow({v.name, bisect ? "on" : "off",
                    std::to_string(r.rounds),
                    std::to_string(r.demand_evaluations),
                    r.converged ? "yes" : "NO",
                    pm::FormatPct(overshoot, 2)});
    }
  }
  std::cout << table.Render() << '\n'
            << "reference: fine-grained clock (" << reference.rounds
            << " rounds) mean price rise "
            << pm::FormatF(reference_level, 4) << " above reserve\n"
            << "shape check: capped policies converge in far fewer "
               "rounds than plain additive; bisection spends extra "
               "demand evaluations to cut overshoot\n";
  return 0;
}
