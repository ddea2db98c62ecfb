// Tests for pm::auction::DemandEngine: randomized equivalence against the
// BidderProxy oracle (decisions and excess bit-for-bit on the full path),
// incremental-re-evaluation consistency, sharded-engine consistency (the
// distributed proxy-node path), thread-count determinism, and the
// deterministic tie-breaking contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "auction/clock_auction.h"
#include "auction/demand_engine.h"
#include "auction/proxy.h"
#include "bid/bid.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/types.h"

namespace pm::auction {
namespace {

using bid::Bid;
using bid::Bundle;
using bid::BundleItem;

/// One randomized market: bids (buyers and sellers, scalar and vector π,
/// occasional duplicate bundles to exercise ties), supply, reserve prices.
struct Market {
  std::vector<Bid> bids;
  std::vector<double> supply;
  std::vector<double> reserve;
};

Market MakeMarket(std::uint64_t seed) {
  RandomStream rng(seed);
  Market m;
  const int num_pools = static_cast<int>(rng.UniformInt(1, 12));
  const int num_users = static_cast<int>(rng.UniformInt(1, 30));
  m.supply.resize(num_pools);
  m.reserve.resize(num_pools);
  for (int r = 0; r < num_pools; ++r) {
    m.supply[r] = rng.Uniform(1.0, 50.0);
    m.reserve[r] = rng.Uniform(0.0, 4.0);
  }
  for (int u = 0; u < num_users; ++u) {
    Bid b;
    b.user = static_cast<UserId>(u);
    b.name = "u" + std::to_string(u);
    const bool seller = rng.Bernoulli(0.25);
    const double sign = seller ? -1.0 : 1.0;
    const int num_bundles = static_cast<int>(rng.UniformInt(1, 4));
    for (int k = 0; k < num_bundles; ++k) {
      if (k > 0 && rng.Bernoulli(0.2)) {
        // Duplicate an earlier bundle: an exact cost tie at every price
        // vector, pinning the tie-break contract.
        b.bundles.push_back(
            b.bundles[static_cast<std::size_t>(rng.UniformInt(0, k - 1))]);
        continue;
      }
      std::vector<BundleItem> items;
      const int nnz = static_cast<int>(
          rng.UniformInt(1, std::min(3, num_pools)));
      for (int j = 0; j < nnz; ++j) {
        items.push_back(BundleItem{
            static_cast<PoolId>(rng.UniformInt(0, num_pools - 1)),
            sign * rng.Uniform(0.5, 6.0)});
      }
      Bundle bundle(std::move(items));
      if (bundle.Empty()) {
        // Duplicate pools can cancel; fall back to a single-item bundle.
        bundle = Bundle({BundleItem{
            static_cast<PoolId>(rng.UniformInt(0, num_pools - 1)),
            sign * rng.Uniform(0.5, 6.0)}});
      }
      b.bundles.push_back(std::move(bundle));
    }
    if (rng.Bernoulli(0.4)) {
      for (std::size_t k = 0; k < b.bundles.size(); ++k) {
        b.bundle_limits.push_back(sign * rng.Uniform(1.0, 60.0));
      }
    } else {
      b.limit = sign * rng.Uniform(1.0, 60.0);
    }
    m.bids.push_back(std::move(b));
  }
  bid::AssignUserIds(m.bids);
  return m;
}

std::vector<double> RandomPrices(RandomStream& rng, std::size_t num_pools,
                                 double hi) {
  std::vector<double> p(num_pools);
  for (double& v : p) v = rng.Uniform(0.0, hi);
  return p;
}

std::vector<ProxyDecision> OracleDecisions(
    const std::vector<Bid>& bids, std::span<const double> prices) {
  std::vector<ProxyDecision> out;
  out.reserve(bids.size());
  for (const Bid& b : bids) {
    out.push_back(BidderProxy(&b).Evaluate(prices));
  }
  return out;
}

/// The oracle excess: user-order serial accumulation, exactly the
/// pre-engine ClockAuction::CollectDemand arithmetic.
std::vector<double> OracleExcess(const std::vector<Bid>& bids,
                                 const std::vector<ProxyDecision>& decisions,
                                 const std::vector<double>& supply) {
  std::vector<double> excess(supply.size(), 0.0);
  for (std::size_t u = 0; u < bids.size(); ++u) {
    if (!decisions[u].Active()) continue;
    bid::AccumulateInto(
        bids[u].bundles[static_cast<std::size_t>(
            decisions[u].bundle_index)],
        excess);
  }
  for (std::size_t r = 0; r < supply.size(); ++r) excess[r] -= supply[r];
  return excess;
}

// ------------------------------------------------- full-path equivalence --

TEST(DemandEngineTest, FullCollectionMatchesOracleBitForBitOver1kMarkets) {
  // ≥1k seeded markets (buyers and sellers, scalar and vector π): the
  // engine's full evaluation must equal the per-proxy oracle bit-for-bit
  // — decision indexes, decision costs, and excess. Markets here are
  // smaller than one excess block, so the engine's blocked accumulation
  // degenerates to exactly the oracle's user-order serial sum.
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    const Market m = MakeMarket(seed);
    RandomStream rng(seed ^ 0x9e3779b97f4a7c15ULL);
    const DemandEngine engine(m.bids, m.supply);
    DemandEngine::Workspace ws;
    for (int probe = 0; probe < 3; ++probe) {
      const std::vector<double> prices =
          probe == 0 ? m.reserve : RandomPrices(rng, m.supply.size(), 12.0);
      ws.Reset();  // Force a full collection at every probe.
      engine.CollectDemand(prices, nullptr, ws);
      const std::vector<ProxyDecision> oracle =
          OracleDecisions(m.bids, prices);
      ASSERT_EQ(ws.decisions().size(), oracle.size());
      for (std::size_t u = 0; u < oracle.size(); ++u) {
        ASSERT_EQ(ws.decisions()[u].bundle_index, oracle[u].bundle_index)
            << "seed " << seed << " user " << u;
        ASSERT_EQ(ws.decisions()[u].cost, oracle[u].cost)
            << "seed " << seed << " user " << u;
      }
      const std::vector<double> expected =
          OracleExcess(m.bids, oracle, m.supply);
      for (std::size_t r = 0; r < expected.size(); ++r) {
        ASSERT_EQ(ws.excess()[r], expected[r])
            << "seed " << seed << " pool " << r;
      }
    }
  }
}

// ------------------------------------------------ incremental consistency --

TEST(DemandEngineTest, IncrementalWalkMatchesFreshEvaluation) {
  // Random ascending price walks moving random pool subsets: the
  // incremental path must reproduce a from-scratch evaluation's decisions
  // exactly (cached-cost drift is orders of magnitude below the kPriceEps
  // comparison tolerance) and its excess to within accumulated rounding.
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const Market m = MakeMarket(seed + 5000);
    RandomStream rng(seed ^ 0xabcdef12345ULL);
    const DemandEngine engine(m.bids, m.supply);
    DemandEngine::Workspace incremental;
    DemandEngine::Workspace fresh;
    std::vector<double> prices = m.reserve;
    for (int stepno = 0; stepno < 20; ++stepno) {
      engine.CollectDemand(prices, nullptr, incremental);
      fresh.Reset();
      engine.CollectDemand(prices, nullptr, fresh);
      for (std::size_t u = 0; u < m.bids.size(); ++u) {
        ASSERT_EQ(incremental.decisions()[u].bundle_index,
                  fresh.decisions()[u].bundle_index)
            << "seed " << seed << " step " << stepno << " user " << u;
        ASSERT_NEAR(incremental.decisions()[u].cost,
                    fresh.decisions()[u].cost, 1e-9);
      }
      for (std::size_t r = 0; r < m.supply.size(); ++r) {
        ASSERT_NEAR(incremental.excess()[r], fresh.excess()[r], 1e-9)
            << "seed " << seed << " step " << stepno << " pool " << r;
      }
      // Move a random subset of pools (sometimes none, sometimes all).
      for (double& p : prices) {
        if (rng.Bernoulli(0.4)) p += rng.Uniform(0.0, 0.8);
      }
    }
  }
}

TEST(DemandEngineTest, IncrementalReevaluatesOnlyTouchedBidders) {
  // Two disjoint user populations over disjoint pool halves: repricing
  // one half must re-evaluate only its bidders.
  std::vector<Bid> bids;
  for (UserId u = 0; u < 10; ++u) {
    Bid b;
    b.user = u;
    b.name = "u" + std::to_string(u);
    const PoolId pool = u < 5 ? 0 : 1;
    b.bundles.push_back(Bundle({BundleItem{pool, 1.0}}));
    b.limit = 100.0;
    bids.push_back(std::move(b));
  }
  const DemandEngine engine(bids, std::vector<double>{4.0, 4.0});
  DemandEngine::Workspace ws;
  std::vector<double> prices = {1.0, 1.0};
  engine.CollectDemand(prices, nullptr, ws);
  EXPECT_EQ(ws.proxies_evaluated(), 10);  // Full sweep.
  prices[1] = 2.0;  // Touch pool 1 only.
  engine.CollectDemand(prices, nullptr, ws);
  EXPECT_EQ(ws.proxies_evaluated(), 15);  // +5: bidders on pool 1 only.
  engine.CollectDemand(prices, nullptr, ws);
  EXPECT_EQ(ws.proxies_evaluated(), 15);  // Unchanged prices: free.
  EXPECT_EQ(ws.full_collections(), 1);
  EXPECT_EQ(ws.incremental_collections(), 2);
}

// --------------------------------------------------- sharded-engine path --

TEST(DemandEngineTest, ShardedEnginesMatchWholeMarketBitForBit) {
  // The distributed proxy nodes compile per-shard engines and serve
  // announcements incrementally; their decisions (and cached costs) must
  // track the whole-market engine bit-for-bit through a price walk.
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const Market m = MakeMarket(seed + 9000);
    RandomStream rng(seed ^ 0x5555aaaaULL);
    const DemandEngine whole(m.bids, m.supply);
    const std::size_t num_shards = 3;
    std::vector<std::vector<std::uint32_t>> shard_users(num_shards);
    for (std::size_t u = 0; u < m.bids.size(); ++u) {
      shard_users[u % num_shards].push_back(static_cast<std::uint32_t>(u));
    }
    std::vector<DemandEngine> shards;
    std::vector<DemandEngine::Workspace> shard_ws(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) {
      shards.emplace_back(m.bids, shard_users[s],
                          std::vector<double>(m.supply.size(), 0.0));
      shard_ws[s].set_want_excess(false);
    }
    DemandEngine::Workspace whole_ws;
    std::vector<double> prices = m.reserve;
    for (int round = 0; round < 10; ++round) {
      whole.CollectDemand(prices, nullptr, whole_ws);
      for (std::size_t s = 0; s < num_shards; ++s) {
        shards[s].CollectDemand(prices, nullptr, shard_ws[s]);
        for (std::size_t i = 0; i < shard_users[s].size(); ++i) {
          const std::uint32_t u = shard_users[s][i];
          ASSERT_EQ(shard_ws[s].decisions()[i].bundle_index,
                    whole_ws.decisions()[u].bundle_index)
              << "seed " << seed << " round " << round << " user " << u;
          ASSERT_EQ(shard_ws[s].decisions()[i].cost,
                    whole_ws.decisions()[u].cost)
              << "seed " << seed << " round " << round << " user " << u;
        }
      }
      for (double& p : prices) {
        if (rng.Bernoulli(0.5)) p += rng.Uniform(0.0, 0.5);
      }
    }
  }
}

// ------------------------------------------------ thread-count invariance --

TEST(DemandEngineTest, ThreadedCollectionBitIdenticalToSerial) {
  // Excess accumulation is blocked with a fixed block size, so results do
  // not depend on the thread pool — even for markets spanning many
  // blocks, interior ones and a ragged (partial) last block alike.
  RandomStream rng(424242);
  std::vector<Bid> bids;
  const std::size_t num_pools = 16;
  for (UserId u = 0; u < 2000; ++u) {
    Bid b;
    b.user = u;
    b.name = "u" + std::to_string(u);
    const int num_bundles = static_cast<int>(rng.UniformInt(1, 3));
    for (int k = 0; k < num_bundles; ++k) {
      b.bundles.push_back(Bundle(
          {BundleItem{static_cast<PoolId>(rng.UniformInt(0, 15)),
                      rng.Uniform(0.5, 4.0)},
           BundleItem{static_cast<PoolId>(rng.UniformInt(0, 15)),
                      rng.Uniform(0.5, 4.0)}}));
    }
    b.limit = rng.Uniform(5.0, 40.0);
    bids.push_back(std::move(b));
  }
  bid::AssignUserIds(bids);
  const DemandEngine engine(bids, std::vector<double>(num_pools, 100.0));
  ASSERT_GT(engine.NumBidders(), 2 * DemandEngine::kExcessBlockBidders);
  ASSERT_NE(engine.NumBidders() % DemandEngine::kExcessBlockBidders, 0u);

  ThreadPool pool(4);
  DemandEngine::Workspace serial_ws;
  DemandEngine::Workspace parallel_ws;
  RandomStream price_rng(7);
  std::vector<double> prices(num_pools, 1.0);
  for (int round = 0; round < 5; ++round) {
    engine.CollectDemand(prices, nullptr, serial_ws);
    engine.CollectDemand(prices, &pool, parallel_ws);
    for (std::size_t u = 0; u < bids.size(); ++u) {
      ASSERT_EQ(serial_ws.decisions()[u].bundle_index,
                parallel_ws.decisions()[u].bundle_index);
      ASSERT_EQ(serial_ws.decisions()[u].cost,
                parallel_ws.decisions()[u].cost);
    }
    for (std::size_t r = 0; r < num_pools; ++r) {
      ASSERT_EQ(serial_ws.excess()[r], parallel_ws.excess()[r]);
    }
    for (double& p : prices) {
      if (price_rng.Bernoulli(0.5)) p += price_rng.Uniform(0.0, 0.4);
    }
  }
}

// ----------------------------------------------- excess helper coherence --

TEST(DemandEngineTest, ExcessHelpersMatchCollectDemand) {
  const Market m = MakeMarket(31337);
  const DemandEngine engine(m.bids, m.supply);
  DemandEngine::Workspace ws;
  engine.CollectDemand(m.reserve, nullptr, ws);
  const std::vector<ProxyDecision> before = ws.decisions();

  std::vector<double> excess(m.supply.size(), 0.0);
  engine.ExcessFromDecisions(before, nullptr, excess);
  for (std::size_t r = 0; r < excess.size(); ++r) {
    EXPECT_EQ(excess[r], ws.excess()[r]);
  }

  // Move a single pool so the engine takes the incremental branch (a
  // wide move would trigger the hybrid full-collect fallback, which
  // recomputes excess fresh rather than by diffs).
  std::vector<double> higher = m.reserve;
  higher[0] += 3.0;
  engine.CollectDemand(higher, nullptr, ws);
  engine.UpdateExcess(before, ws.decisions(), excess);
  for (std::size_t r = 0; r < excess.size(); ++r) {
    EXPECT_EQ(excess[r], ws.excess()[r]);  // Same diff sequence: bit-exact.
  }
}

// ------------------------------------------------------------ tie-breaks --

TEST(DemandEngineTest, TieBreakPicksLowestIndexInEngineAndOracle) {
  // Exact duplicates: every price vector produces an exact cost tie; the
  // contract says the lowest index wins, in the oracle and the engine.
  Bid b;
  b.user = 0;
  b.name = "t";
  b.bundles = {Bundle({{0, 2.0}}), Bundle({{0, 2.0}}), Bundle({{0, 2.0}})};
  b.limit = 100.0;
  std::vector<Bid> bids = {b};
  bid::AssignUserIds(bids);
  const DemandEngine engine(bids, std::vector<double>{10.0});
  DemandEngine::Workspace ws;
  for (double price : {0.0, 1.0, 7.5}) {
    const std::vector<double> prices = {price};
    ws.Reset();
    engine.CollectDemand(prices, nullptr, ws);
    const ProxyDecision oracle = BidderProxy(&bids[0]).Evaluate(prices);
    EXPECT_EQ(oracle.bundle_index, 0);
    EXPECT_EQ(ws.decisions()[0].bundle_index, 0);
  }
}

TEST(DemandEngineTest, EpsCloseCostsResolveToLowestIndex) {
  // Bundle 1 is cheaper than bundle 0 by half an epsilon: within the
  // kPriceEps window, so the lower index must still win; 10 eps below, it
  // must lose.
  Bid near_tie;
  near_tie.user = 0;
  near_tie.name = "n";
  near_tie.bundles = {Bundle({{0, 1.0}}),
                      Bundle({{1, 1.0 - 0.5 * kPriceEps}})};
  near_tie.limit = 100.0;
  Bid clear_win;
  clear_win.user = 1;
  clear_win.name = "c";
  clear_win.bundles = {Bundle({{0, 1.0}}),
                       Bundle({{1, 1.0 - 10.0 * kPriceEps}})};
  clear_win.limit = 100.0;
  std::vector<Bid> bids = {near_tie, clear_win};
  bid::AssignUserIds(bids);
  const std::vector<double> prices = {1.0, 1.0};
  const DemandEngine engine(bids, std::vector<double>{5.0, 5.0});
  DemandEngine::Workspace ws;
  engine.CollectDemand(prices, nullptr, ws);
  EXPECT_EQ(BidderProxy(&bids[0]).Evaluate(prices).bundle_index, 0);
  EXPECT_EQ(ws.decisions()[0].bundle_index, 0);
  EXPECT_EQ(BidderProxy(&bids[1]).Evaluate(prices).bundle_index, 1);
  EXPECT_EQ(ws.decisions()[1].bundle_index, 1);
}

TEST(DemandEngineTest, VectorPiTieBreakSkipsUnaffordableDuplicates) {
  // Identical bundles, but bundle 0 is unaffordable under its vector-π
  // entry: the lowest AFFORDABLE index wins.
  Bid b;
  b.user = 0;
  b.name = "v";
  b.bundles = {Bundle({{0, 3.0}}), Bundle({{0, 3.0}}), Bundle({{0, 3.0}})};
  b.bundle_limits = {1.0, 50.0, 50.0};
  std::vector<Bid> bids = {b};
  bid::AssignUserIds(bids);
  const std::vector<double> prices = {2.0};  // Cost 6 > 1, ≤ 50.
  const DemandEngine engine(bids, std::vector<double>{10.0});
  DemandEngine::Workspace ws;
  engine.CollectDemand(prices, nullptr, ws);
  EXPECT_EQ(BidderProxy(&bids[0]).Evaluate(prices).bundle_index, 1);
  EXPECT_EQ(ws.decisions()[0].bundle_index, 1);
}

// -------------------------------------------------- auction-level checks --

TEST(DemandEngineTest, AuctionDecisionsMatchOracleAtFinalPrices) {
  // End-to-end: after a bisected engine-driven auction, the reported
  // decisions must be exactly what the oracle chooses at the final
  // prices (the incremental path may not drift decisions).
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const Market m = MakeMarket(seed + 20000);
    const ClockAuction auction(m.bids, m.supply, m.reserve);
    ClockAuctionConfig config;
    config.alpha = 0.5;
    config.delta = 0.2;
    config.intra_round_bisection = true;
    config.max_rounds = 4000;
    const ClockAuctionResult r = auction.Run(config);
    // Non-converged runs report decisions for the last evaluated prices,
    // which precede the final step — only converged runs pin prices to
    // the last demand collection.
    if (!r.converged) continue;
    const std::vector<ProxyDecision> oracle =
        OracleDecisions(m.bids, r.prices);
    for (std::size_t u = 0; u < m.bids.size(); ++u) {
      ASSERT_EQ(r.decisions[u].bundle_index, oracle[u].bundle_index)
          << "seed " << seed << " user " << u;
    }
    EXPECT_LE(r.proxies_reevaluated, r.demand_evaluations);
  }
}

TEST(DemandEngineTest, BisectionProbesReevaluateOnlySteppedPoolBidders) {
  // Ten single-pool user populations; only pool 0 is scarce. After the
  // first round the clock (and every bisection probe) moves pool 0
  // alone, so the engine re-evaluates only the 10 pool-0 bidders out of
  // 100 — proxies_reevaluated must land far below demand_evaluations,
  // the probe-cost-is-O(touched) claim.
  std::vector<Bid> bids;
  for (UserId u = 0; u < 100; ++u) {
    Bid b;
    b.user = u;
    b.name = "u" + std::to_string(u);
    const PoolId pool = u % 10;  // 10 bidders per pool.
    b.bundles.push_back(Bundle({BundleItem{pool, 1.0}}));
    b.limit = 5.0 + static_cast<double>(u / 10) * 0.5;
    bids.push_back(std::move(b));
  }
  std::vector<double> supply(10, 100.0);  // Pools 1..9 clear instantly.
  supply[0] = 5.0;  // Pool 0: 10 demanded vs 5 supplied.
  const ClockAuction auction(bids, supply, std::vector<double>(10, 1.0));
  ClockAuctionConfig config;
  config.intra_round_bisection = true;
  const ClockAuctionResult r = auction.Run(config);
  ASSERT_TRUE(r.converged);
  ASSERT_GT(r.demand_evaluations, 0);
  // Round 0 evaluates all 100; every later round and probe touches only
  // pool 0's 10 bidders.
  EXPECT_LT(r.proxies_reevaluated, r.demand_evaluations / 5);
}

TEST(DemandEngineTest, WorkspaceRejectsForeignEngine) {
  const Market a = MakeMarket(1);
  const Market b = MakeMarket(2);
  const DemandEngine ea(a.bids, a.supply);
  const DemandEngine eb(b.bids, b.supply);
  DemandEngine::Workspace ws;
  ea.CollectDemand(a.reserve, nullptr, ws);
  EXPECT_THROW(eb.CollectDemand(b.reserve, nullptr, ws), CheckFailure);
}

}  // namespace
}  // namespace pm::auction
