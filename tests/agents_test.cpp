// Tests for pm::agents: price learning, bidding strategies, workload
// generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <tuple>

#include "agents/strategy.h"
#include "agents/team.h"
#include "agents/workload_gen.h"
#include "bid/tbbl_flatten.h"
#include "common/check.h"

namespace pm::agents {
namespace {

// --------------------------------------------------------------- learning --

TEST(PriceLearnerTest, BeliefsMoveTowardObservations) {
  PriceLearner learner({10.0, 10.0}, 0.5, 0.5, 0.9);
  const std::vector<double> observed = {20.0, 6.0};
  learner.Observe(observed);
  EXPECT_NEAR(learner.Belief(0), 15.0, 1e-12);
  EXPECT_NEAR(learner.Belief(1), 8.0, 1e-12);
}

TEST(PriceLearnerTest, RepeatedObservationConverges) {
  PriceLearner learner({100.0}, 0.5, 0.5, 0.9);
  const std::vector<double> market = {10.0};
  for (int i = 0; i < 30; ++i) learner.Observe(market);
  EXPECT_NEAR(learner.Belief(0), 10.0, 1e-3);
  EXPECT_EQ(learner.ObservationCount(), 30);
}

TEST(PriceLearnerTest, MarkupDecaysGeometrically) {
  PriceLearner learner({1.0}, 0.5, 0.8, 0.5);
  EXPECT_DOUBLE_EQ(learner.Markup(), 0.8);
  const std::vector<double> p = {1.0};
  learner.Observe(p);
  EXPECT_DOUBLE_EQ(learner.Markup(), 0.4);
  learner.Observe(p);
  EXPECT_DOUBLE_EQ(learner.Markup(), 0.2);
}

TEST(PriceLearnerTest, ValidatesArguments) {
  EXPECT_THROW(PriceLearner({}, 0.5, 0.5, 0.9), pm::CheckFailure);
  EXPECT_THROW(PriceLearner({1.0}, 0.0, 0.5, 0.9), pm::CheckFailure);
  EXPECT_THROW(PriceLearner({1.0}, 0.5, -0.1, 0.9), pm::CheckFailure);
  PriceLearner learner({1.0}, 0.5, 0.5, 0.9);
  const std::vector<double> wrong_size = {1.0, 2.0};
  EXPECT_THROW(learner.Observe(wrong_size), pm::CheckFailure);
  EXPECT_THROW(learner.Belief(5), pm::CheckFailure);
}

// ------------------------------------------------------------- strategies --

/// Test harness: a 3-cluster world with a hot home cluster.
struct StrategyFixture {
  PoolRegistry registry;
  std::vector<double> reserve;
  std::vector<double> utilization;
  std::vector<double> free_capacity;

  StrategyFixture() {
    // Pools: hot (0,1,2), mid (3,4,5), cold (6,7,8).
    for (const char* name : {"hot", "mid", "cold"}) {
      for (ResourceKind kind : kAllResourceKinds) {
        registry.Intern(name, kind);
      }
    }
    // Hot cluster: expensive reserves, no free room.
    reserve = {20.0, 3.0, 1.6, 10.0, 1.5, 0.8, 5.0, 0.75, 0.4};
    utilization = {0.95, 0.95, 0.95, 0.5, 0.5, 0.5, 0.1, 0.1, 0.1};
    free_capacity = {50, 200, 25, 500, 2000, 250, 900, 3600, 450};
  }

  std::size_t Index(const std::string& cluster) const {
    return *registry.FindCluster(cluster);
  }

  MarketView View(double budget = 1e6) const {
    MarketView view;
    view.registry = &registry;
    view.reserve_prices = reserve;
    view.utilization = utilization;
    view.free_capacity = free_capacity;
    view.budget = budget;
    view.auction_index = 0;
    return view;
  }

  TeamProfile Profile(StrategyKind kind) const {
    TeamProfile p;
    p.name = "team-x";
    p.home_cluster = "hot";
    p.footprint = {40.0, 160.0, 20.0};
    p.growth_rate = 0.1;
    p.relocation_cost = 50.0;
    p.value_multiplier = 2.0;
    p.strategy = kind;
    return p;
  }
};

TEST(StrategyHelperTest, BundleForClusterMapsKinds) {
  StrategyFixture fx;
  const bid::Bundle b = BundleForCluster(fx.registry, fx.Index("mid"),
                                         {4.0, 16.0, 2.0});
  EXPECT_EQ(b.Size(), 3u);
  const auto cpu = fx.registry.Find(PoolKey{"mid", ResourceKind::kCpu});
  EXPECT_DOUBLE_EQ(b.QuantityOf(*cpu), 4.0);
}

TEST(StrategyHelperTest, BundleSkipsZeroComponents) {
  StrategyFixture fx;
  const bid::Bundle b =
      BundleForCluster(fx.registry, fx.Index("mid"), {4.0, 0.0, 0.0});
  EXPECT_EQ(b.Size(), 1u);
}

TEST(StrategyHelperTest, BelievedClusterCostUsesBeliefs) {
  StrategyFixture fx;
  PriceLearner learner(fx.reserve, 0.5, 0.0, 1.0);
  const double cost = BelievedClusterCost(
      fx.registry, learner, fx.Index("cold"), {10.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(cost, 50.0);
}

TEST(StrategyHelperTest, TbblOneKindClusterReadsInvalidPools) {
  // A TBBL leaf interns one kind of a cluster alone; the registry table
  // marks the other kinds invalid and bundles needing them still throw.
  PoolRegistry registry;
  const bid::FlattenOutcome out =
      bid::CompileBids(R"(bid "t" limit 10 { cpu@x: 5 })", registry);
  ASSERT_TRUE(out.ok()) << out.error;
  const auto x = registry.FindCluster("x");
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(registry.PoolOf(*x, ResourceKind::kCpu), 0u);
  EXPECT_EQ(registry.PoolOf(*x, ResourceKind::kRam), kInvalidPool);
  EXPECT_EQ(registry.PoolOf(*x, ResourceKind::kDisk), kInvalidPool);
  EXPECT_EQ(BundleForCluster(registry, *x, {5.0, 0.0, 0.0}).Size(), 1u);
  try {
    BundleForCluster(registry, *x, {5.0, 2.0, 0.0});
    ADD_FAILURE() << "expected a missing-pool failure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("missing pool for kind ram"),
              std::string::npos)
        << e.what();
  }
}

TEST(StrategyTest, GrowthAlternativesTieBreakByClusterName) {
  // "zeta" and "alpha" carry identical beliefs and room; "zeta" is
  // interned first, yet the cheaper-alternative order is by name.
  PoolRegistry registry;
  for (const char* name : {"home", "zeta", "alpha"}) {
    for (ResourceKind kind : kAllResourceKinds) {
      registry.Intern(name, kind);
    }
  }
  const std::vector<double> reserve = {20.0, 3.0,  1.6, 5.0, 0.75,
                                       0.4,  5.0, 0.75, 0.4};
  const std::vector<double> utilization(registry.size(), 0.5);
  const std::vector<double> free_capacity = {50,  200,  25,  900, 3600,
                                             450, 900, 3600, 450};
  MarketView view;
  view.registry = &registry;
  view.reserve_prices = reserve;
  view.utilization = utilization;
  view.free_capacity = free_capacity;
  view.budget = 1e6;
  TeamProfile profile = StrategyFixture().Profile(
      StrategyKind::kTruthfulGrowth);
  profile.home_cluster = "home";
  TeamAgent agent(profile, reserve, 1);
  const auto bids = agent.MakeBids(view);
  ASSERT_EQ(bids.size(), 1u);
  ASSERT_EQ(bids[0].bundles.size(), 3u);
  const auto cpu = [&](const char* name) {
    return *registry.Find(PoolKey{name, ResourceKind::kCpu});
  };
  EXPECT_GT(bids[0].bundles[0].QuantityOf(cpu("home")), 0.0);
  EXPECT_GT(bids[0].bundles[1].QuantityOf(cpu("alpha")), 0.0);
  EXPECT_GT(bids[0].bundles[2].QuantityOf(cpu("zeta")), 0.0);
}

/// Whether every positive component of `delta` fits in `cluster`'s free
/// capacity.
bool HasRoom(const PoolRegistry& registry,
             const std::vector<double>& free_capacity, std::size_t cluster,
             const cluster::TaskShape& delta) {
  for (ResourceKind kind : kAllResourceKinds) {
    if (delta.Of(kind) <= 0.0) continue;
    if (free_capacity[registry.PoolOf(cluster, kind)] < delta.Of(kind)) {
      return false;
    }
  }
  return true;
}

// The cluster ranking the strategies used before selection became a
// bounded pass: every cluster under the avoid bar, believed cost times
// the penalty factor, fully sorted by (cost, name); the walk then skips
// `home`, `skip` and clusters without room and keeps the first `k`.
std::vector<std::size_t> FullSortAlternatives(
    const PoolRegistry& registry, const PriceLearner& learner,
    const std::vector<double>& penalty,
    const std::vector<double>& free_capacity,
    const cluster::TaskShape& delta, std::size_t home,
    std::optional<std::size_t> skip, std::size_t k) {
  const std::vector<std::string>& names = registry.Clusters();
  std::vector<std::pair<double, std::size_t>> ranked;
  for (std::size_t c = 0; c < names.size(); ++c) {
    const double p = ClusterPlacementPenalty(registry, &penalty, c);
    if (p >= kPlacementPenaltyAvoid) continue;
    ranked.emplace_back(BelievedClusterCost(registry, learner, c, delta) *
                            (1.0 + kPlacementPenaltyWeight * p),
                        c);
  }
  std::sort(ranked.begin(), ranked.end(), [&](const auto& a, const auto& b) {
    return std::tie(a.first, names[a.second]) <
           std::tie(b.first, names[b.second]);
  });
  std::vector<std::size_t> out;
  for (const auto& [cost, c] : ranked) {
    if (c == home || c == skip) continue;
    if (!HasRoom(registry, free_capacity, c, delta)) continue;
    out.push_back(c);
    if (out.size() == k) break;
  }
  return out;
}

/// The cluster a single-cluster bundle bids into.
std::size_t ClusterOf(const PoolRegistry& registry, const bid::Bundle& b) {
  return *registry.FindCluster(registry.KeyOf(b.items().at(0).pool).cluster);
}

TEST(StrategyTest, BoundedSelectionMatchesFullSortReference) {
  // Random markets with cost ties (beliefs drawn from a three-entry
  // palette), avoided clusters (penalty >= kPlacementPenaltyAvoid),
  // clusters without room, and names whose order differs from index
  // order. Growth and opportunist bundles must list exactly the clusters
  // the full-sort reference picks, in its order.
  std::mt19937_64 gen(20090425);
  const auto uniform = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(gen);
  };
  const auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(gen);
  };
  const std::vector<std::array<double, 3>> palette = {
      {5.0, 0.75, 0.4}, {10.0, 1.5, 0.8}, {20.0, 3.0, 1.6}};
  int rebuys_checked = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 3 + pick(22);
    std::vector<int> labels(100);
    std::iota(labels.begin(), labels.end(), 0);
    std::shuffle(labels.begin(), labels.end(), gen);
    PoolRegistry registry;
    for (std::size_t c = 0; c < n; ++c) {
      for (ResourceKind kind : kAllResourceKinds) {
        registry.Intern("c" + std::to_string(labels[c]), kind);
      }
    }
    std::vector<double> beliefs, penalty, free_capacity;
    for (std::size_t c = 0; c < n; ++c) {
      const bool tied = pick(2) == 0;
      const std::array<double, 3> triple =
          tied ? palette[pick(palette.size())]
               : std::array<double, 3>{uniform(3, 25), uniform(0.5, 4),
                                       uniform(0.2, 2)};
      for (std::size_t k = 0; k < 3; ++k) {
        beliefs.push_back(triple[k]);
        penalty.push_back(std::array<double, 4>{0.0, 0.0, 0.3, 0.7}[pick(4)]);
        free_capacity.push_back(pick(4) == 0 ? 0.5 : 1e6);
      }
    }
    if (pick(4) == 0) penalty.clear();  // The outcome_feedback-off path.
    const std::vector<double> utilization(registry.size(), 0.5);
    MarketView view;
    view.registry = &registry;
    view.reserve_prices = beliefs;
    view.utilization = utilization;
    view.free_capacity = free_capacity;
    view.budget = 1e9;
    TeamProfile profile = StrategyFixture().Profile(
        StrategyKind::kTruthfulGrowth);
    profile.home_cluster = registry.Clusters()[pick(n)];
    profile.footprint = {uniform(2, 100), uniform(4, 400), uniform(0.2, 20)};
    profile.relocation_cost =
        std::array<double, 3>{0.0, 10.0, 1e9}[pick(3)];
    const std::size_t home = *registry.FindCluster(profile.home_cluster);

    // Growth: home, then up to three alternatives.
    {
      TeamAgent agent(profile, beliefs, 7);
      agent.RestorePlacementPenalty(penalty);
      const auto bids = agent.MakeBids(view);
      ASSERT_EQ(bids.size(), 1u);
      cluster::TaskShape delta = profile.footprint * profile.growth_rate;
      delta.cpu = std::max(delta.cpu, 1.0);
      delta.ram_gb = std::max(delta.ram_gb, 2.0);
      delta.disk_tb = std::max(delta.disk_tb, 0.1);
      std::vector<std::size_t> expected = {home};
      for (std::size_t c :
           FullSortAlternatives(registry, agent.learner(), penalty,
                                free_capacity, delta, home, std::nullopt,
                                3)) {
        expected.push_back(c);
      }
      std::vector<std::size_t> got;
      for (const bid::Bundle& b : bids[0].bundles) {
        got.push_back(ClusterOf(registry, b));
      }
      EXPECT_EQ(got, expected) << "trial " << trial;
    }

    // Opportunist: the rebuy lists the cheapest cluster, then up to two
    // fallbacks ranked by the same order.
    {
      profile.strategy = StrategyKind::kOpportunistMover;
      TeamAgent agent(profile, beliefs, 11);
      agent.RestorePlacementPenalty(penalty);
      const auto bids = agent.MakeBids(view);
      const cluster::TaskShape slice = profile.footprint * 0.5;
      std::optional<std::size_t> best;
      double best_ranked = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < n; ++c) {
        if (c == home) continue;
        const double p = ClusterPlacementPenalty(registry, &penalty, c);
        if (p >= kPlacementPenaltyAvoid) continue;
        if (!HasRoom(registry, free_capacity, c, slice)) continue;
        const double ranked =
            BelievedClusterCost(registry, agent.learner(), c, slice) *
            (1.0 + kPlacementPenaltyWeight * p);
        if (ranked < best_ranked) {
          best_ranked = ranked;
          best = c;
        }
      }
      for (const bid::Bid& b : bids) {
        if (b.name != profile.name + "/relocate") continue;
        ASSERT_TRUE(best.has_value());
        std::vector<std::size_t> expected = {*best};
        for (std::size_t c :
             FullSortAlternatives(registry, agent.learner(), penalty,
                                  free_capacity, slice, home, best, 2)) {
          expected.push_back(c);
        }
        std::vector<std::size_t> got;
        for (const bid::Bundle& bundle : b.bundles) {
          got.push_back(ClusterOf(registry, bundle));
        }
        EXPECT_EQ(got, expected) << "trial " << trial;
        ++rebuys_checked;
      }
    }
  }
  // The opportunist's rebuy path ran often enough to mean something.
  EXPECT_GT(rebuys_checked, 50);
}

TEST(StrategyTest, TruthfulGrowthOffersAlternatives) {
  StrategyFixture fx;
  TeamAgent agent(fx.Profile(StrategyKind::kTruthfulGrowth), fx.reserve,
                  1);
  const auto bids = agent.MakeBids(fx.View());
  ASSERT_EQ(bids.size(), 1u);
  EXPECT_GT(bids[0].limit, 0.0);
  // Home plus at least one believed-cheaper alternative (cold is much
  // cheaper and has room).
  EXPECT_GE(bids[0].bundles.size(), 2u);
}

TEST(StrategyTest, TruthfulGrowthRespectsBudget) {
  StrategyFixture fx;
  TeamAgent agent(fx.Profile(StrategyKind::kTruthfulGrowth), fx.reserve,
                  1);
  const auto bids = agent.MakeBids(fx.View(/*budget=*/5.0));
  ASSERT_EQ(bids.size(), 1u);
  EXPECT_LE(bids[0].limit, 5.0);
}

TEST(StrategyTest, PremiumStickyStaysHome) {
  StrategyFixture fx;
  TeamAgent agent(fx.Profile(StrategyKind::kPremiumSticky), fx.reserve, 2);
  const auto bids = agent.MakeBids(fx.View());
  ASSERT_EQ(bids.size(), 1u);
  ASSERT_EQ(bids[0].bundles.size(), 1u);  // Home only, no alternatives.
  const auto hot_cpu = fx.registry.Find(PoolKey{"hot", ResourceKind::kCpu});
  EXPECT_GT(bids[0].bundles[0].QuantityOf(*hot_cpu), 0.0);
  // Pays a hefty premium over believed cost.
  PriceLearner fresh(fx.reserve, 0.5, 0.6, 0.35);
  const double believed = BelievedClusterCost(
      fx.registry, fresh, fx.Index("hot"),
      {4.0, 16.0, 2.0});
  EXPECT_GT(bids[0].limit, believed);
}

TEST(StrategyTest, OpportunistMoverSellsHomeAndRebuysCold) {
  StrategyFixture fx;
  TeamAgent agent(fx.Profile(StrategyKind::kOpportunistMover), fx.reserve,
                  3);
  const auto bids = agent.MakeBids(fx.View());
  ASSERT_EQ(bids.size(), 2u);
  // One offer (negative limit, pure sell), one rebuy (positive limit).
  const bid::Bid* offer = nullptr;
  const bid::Bid* rebuy = nullptr;
  for (const auto& b : bids) {
    if (b.limit <= 0.0) {
      offer = &b;
    } else {
      rebuy = &b;
    }
  }
  ASSERT_NE(offer, nullptr);
  ASSERT_NE(rebuy, nullptr);
  EXPECT_EQ(bid::ClassifyBid(*offer), bid::BidSide::kSeller);
  EXPECT_EQ(bid::ClassifyBid(*rebuy), bid::BidSide::kBuyer);
  // The offer vacates the home cluster.
  const auto hot_cpu = fx.registry.Find(PoolKey{"hot", ResourceKind::kCpu});
  EXPECT_LT(offer->bundles[0].QuantityOf(*hot_cpu), 0.0);
}

TEST(StrategyTest, MoverFallsBackWhenSpreadTooSmall) {
  StrategyFixture fx;
  TeamProfile profile = fx.Profile(StrategyKind::kOpportunistMover);
  profile.relocation_cost = 1e9;  // Never worth moving.
  TeamAgent agent(std::move(profile), fx.reserve, 4);
  const auto bids = agent.MakeBids(fx.View());
  // Falls back to truthful growth: a single buy bid.
  ASSERT_EQ(bids.size(), 1u);
  EXPECT_GT(bids[0].limit, 0.0);
}

TEST(StrategyTest, LowballSellerAsksTokenPrice) {
  StrategyFixture fx;
  TeamAgent agent(fx.Profile(StrategyKind::kLowballSeller), fx.reserve, 5);
  const auto bids = agent.MakeBids(fx.View());
  ASSERT_EQ(bids.size(), 1u);
  EXPECT_EQ(bid::ClassifyBid(bids[0]), bid::BidSide::kSeller);
  EXPECT_GE(bids[0].limit, -2.0);  // Token ask.
  EXPECT_LT(bids[0].limit, 0.0);
}

TEST(StrategyTest, ArbitrageurBuysDiscountedPools) {
  StrategyFixture fx;
  TeamAgent agent(fx.Profile(StrategyKind::kArbitrageur), fx.reserve, 6);
  // Beliefs start at reserves → no discount → no buy.
  EXPECT_TRUE(agent.MakeBids(fx.View()).empty());
  // After observing much higher settled prices everywhere, the reserve
  // looks like a discount.
  std::vector<double> settled = fx.reserve;
  for (double& p : settled) p *= 2.0;
  agent.ObserveOutcome(settled, {});
  const auto bids = agent.MakeBids(fx.View());
  ASSERT_EQ(bids.size(), 1u);
  EXPECT_EQ(bid::ClassifyBid(bids[0]), bid::BidSide::kBuyer);
}

TEST(StrategyTest, ArbitrageurResellsHoldings) {
  StrategyFixture fx;
  TeamAgent agent(fx.Profile(StrategyKind::kArbitrageur), fx.reserve, 7);
  agent.mutable_holdings().assign(fx.registry.size(), 0.0);
  agent.mutable_holdings()[6] = 100.0;  // Cold cpu warehoused.
  // Observe a crash in beliefs so that reserve >> belief → sell.
  std::vector<double> crash = fx.reserve;
  for (double& p : crash) p *= 0.3;
  agent.ObserveOutcome(crash, {});
  agent.ObserveOutcome(crash, {});
  const auto bids = agent.MakeBids(fx.View());
  bool has_sell = false;
  for (const auto& b : bids) {
    if (bid::ClassifyBid(b) == bid::BidSide::kSeller) has_sell = true;
  }
  EXPECT_TRUE(has_sell);
}

// ---------------------------------------------- placement feedback --

TEST(PlacementPenaltyTest, NoFeedbackLeavesMemoryEmpty) {
  StrategyFixture fx;
  TeamAgent agent(fx.Profile(StrategyKind::kTruthfulGrowth), fx.reserve,
                  1);
  // Gate-off-shaped outcomes: won, but no placement fields.
  std::vector<BidOutcome> outcomes(2);
  outcomes[0].won = true;
  outcomes[0].payment = 12.0;
  agent.ObserveOutcome(fx.reserve, outcomes);
  EXPECT_TRUE(agent.placement_penalty().empty());
}

TEST(PlacementPenaltyTest, FailuresRaiseAndCleanAuctionsForgive) {
  StrategyFixture fx;
  TeamAgent agent(fx.Profile(StrategyKind::kTruthfulGrowth), fx.reserve,
                  1);
  BidOutcome fail;
  fail.won = true;
  fail.awarded_units = 10.0;
  fail.placed_units = 0.0;
  fail.unplaced_pools = {6};
  agent.ObserveOutcome(fx.reserve, {fail});
  ASSERT_EQ(agent.placement_penalty().size(), fx.registry.size());
  EXPECT_DOUBLE_EQ(agent.placement_penalty()[6], kPlacementPenaltyStep);
  EXPECT_EQ(agent.placement_penalty()[0], 0.0);

  BidOutcome clean;
  clean.won = true;
  clean.awarded_units = 5.0;
  clean.placed_units = 5.0;
  agent.ObserveOutcome(fx.reserve, {clean});
  EXPECT_DOUBLE_EQ(agent.placement_penalty()[6],
                   kPlacementPenaltyStep * (1.0 - kPlacementPenaltyStep));

  // Chronic failure saturates (clamped at 1), never overshoots.
  for (int i = 0; i < 30; ++i) agent.ObserveOutcome(fx.reserve, {fail});
  EXPECT_GT(agent.placement_penalty()[6], 0.9);
  EXPECT_LE(agent.placement_penalty()[6], 1.0);
}

TEST(StrategyHelperTest, ClusterPlacementPenaltyTakesWorstKind) {
  StrategyFixture fx;
  std::vector<double> penalty(fx.registry.size(), 0.0);
  penalty[7] = 0.8;  // cold/ram.
  const std::size_t cold = fx.Index("cold");
  EXPECT_DOUBLE_EQ(ClusterPlacementPenalty(fx.registry, &penalty, cold),
                   0.8);
  EXPECT_DOUBLE_EQ(
      ClusterPlacementPenalty(fx.registry, &penalty, fx.Index("mid")), 0.0);
  EXPECT_DOUBLE_EQ(ClusterPlacementPenalty(fx.registry, nullptr, cold),
                   0.0);
  const std::vector<double> empty;
  EXPECT_DOUBLE_EQ(ClusterPlacementPenalty(fx.registry, &empty, cold), 0.0);
}

TEST(PlacementPenaltyTest, DistrustedClusterDropsOutOfGrowthBids) {
  StrategyFixture fx;
  TeamAgent agent(fx.Profile(StrategyKind::kTruthfulGrowth), fx.reserve,
                  1);
  const auto cold_cpu =
      fx.registry.Find(PoolKey{"cold", ResourceKind::kCpu});
  const auto mentions_cold = [&](const std::vector<bid::Bid>& bids) {
    for (const bid::Bid& b : bids) {
      for (const bid::Bundle& bundle : b.bundles) {
        if (bundle.QuantityOf(*cold_cpu) != 0.0) return true;
      }
    }
    return false;
  };
  // Baseline: cold is the cheapest alternative with room — bid on it.
  ASSERT_TRUE(mentions_cold(agent.MakeBids(fx.View())));

  // Three straight placement failures on cold's pools push its penalty
  // past the avoid bar (0.3 → 0.51 → 0.657 ≥ 0.6).
  BidOutcome fail;
  fail.won = true;
  fail.awarded_units = 10.0;
  fail.placed_units = 0.0;
  fail.unplaced_pools = {6, 7, 8};
  for (int i = 0; i < 3; ++i) agent.ObserveOutcome(fx.reserve, {fail});
  EXPECT_GE(agent.placement_penalty()[6], kPlacementPenaltyAvoid);
  EXPECT_FALSE(mentions_cold(agent.MakeBids(fx.View())));
}

// ------------------------------------------------------------ workload gen --

TEST(WorkloadGenTest, GeneratesRequestedShape) {
  WorkloadConfig config;
  config.num_clusters = 8;
  config.num_teams = 20;
  config.min_machines_per_cluster = 10;
  config.max_machines_per_cluster = 20;
  config.seed = 7;
  const World world = GenerateWorld(config);
  EXPECT_EQ(world.fleet.NumClusters(), 8u);
  EXPECT_EQ(world.fleet.NumPools(), 24u);
  EXPECT_EQ(world.agents.size(), 20u);
  EXPECT_EQ(world.fixed_prices.size(), 24u);
  EXPECT_EQ(world.target_utilization.size(), 8u);
}

TEST(WorkloadGenTest, DeterministicInSeed) {
  WorkloadConfig config;
  config.num_clusters = 6;
  config.num_teams = 15;
  config.seed = 99;
  const World a = GenerateWorld(config);
  const World b = GenerateWorld(config);
  EXPECT_EQ(a.fleet.UtilizationVector(), b.fleet.UtilizationVector());
  ASSERT_EQ(a.agents.size(), b.agents.size());
  for (std::size_t i = 0; i < a.agents.size(); ++i) {
    EXPECT_EQ(a.agents[i].profile().name, b.agents[i].profile().name);
    EXPECT_EQ(a.agents[i].profile().home_cluster,
              b.agents[i].profile().home_cluster);
    EXPECT_EQ(a.agents[i].profile().footprint,
              b.agents[i].profile().footprint);
  }
}

TEST(WorkloadGenTest, DifferentSeedsDifferentWorlds) {
  WorkloadConfig config;
  config.num_clusters = 6;
  config.num_teams = 15;
  config.seed = 1;
  const World a = GenerateWorld(config);
  config.seed = 2;
  const World b = GenerateWorld(config);
  EXPECT_NE(a.fleet.UtilizationVector(), b.fleet.UtilizationVector());
}

TEST(WorkloadGenTest, UtilizationSpreadIsWide) {
  WorkloadConfig config;
  config.num_clusters = 12;
  config.num_teams = 60;
  config.seed = 5;
  const World world = GenerateWorld(config);
  double lo = 1.0, hi = 0.0;
  for (const std::string& name : world.fleet.ClusterNames()) {
    const double u =
        world.fleet.ClusterByName(name).Utilization(ResourceKind::kCpu);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  EXPECT_LT(lo, 0.35);  // Some cold clusters.
  EXPECT_GT(hi, 0.70);  // Some hot clusters.
}

TEST(WorkloadGenTest, EveryTeamHasViableProfile) {
  WorkloadConfig config;
  config.num_clusters = 6;
  config.num_teams = 30;
  config.seed = 11;
  const World world = GenerateWorld(config);
  for (const TeamAgent& agent : world.agents) {
    const TeamProfile& p = agent.profile();
    EXPECT_FALSE(p.name.empty());
    EXPECT_TRUE(world.fleet.HasCluster(p.home_cluster));
    EXPECT_GE(p.footprint.cpu, 1.0);
    EXPECT_GT(p.relocation_cost, 0.0);
    EXPECT_GE(p.value_multiplier, 1.0);
  }
}

TEST(WorkloadGenTest, FixedPricesMatchUnitCosts) {
  WorkloadConfig config;
  config.num_clusters = 3;
  config.num_teams = 5;
  config.seed = 3;
  const World world = GenerateWorld(config);
  for (PoolId r = 0; r < world.fleet.NumPools(); ++r) {
    const ResourceKind kind = world.fleet.registry().KeyOf(r).kind;
    EXPECT_DOUBLE_EQ(world.fixed_prices[r],
                     kUnitCosts.Of(kind));
  }
}

TEST(WorkloadGenTest, StrategyMixRoughlyMatchesFractions) {
  WorkloadConfig config;
  config.num_clusters = 10;
  config.num_teams = 400;
  config.seed = 23;
  const World world = GenerateWorld(config);
  int premium = 0, movers = 0;
  for (const TeamAgent& agent : world.agents) {
    if (agent.profile().strategy == StrategyKind::kPremiumSticky) {
      ++premium;
    }
    if (agent.profile().strategy == StrategyKind::kOpportunistMover) {
      ++movers;
    }
  }
  EXPECT_NEAR(premium / 400.0, config.frac_premium_sticky, 0.06);
  EXPECT_NEAR(movers / 400.0, config.frac_opportunist_mover, 0.06);
}

TEST(WorkloadGenTest, InvalidConfigThrows) {
  WorkloadConfig config;
  config.num_clusters = 1;
  EXPECT_THROW(GenerateWorld(config), pm::CheckFailure);
}

}  // namespace
}  // namespace pm::agents
