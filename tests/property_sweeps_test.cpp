// Parameterized property sweeps across modules:
//  * random bid-language trees: alternative counting vs actual expansion,
//    and concrete-syntax round-trips through the parser
//  * best-fit placement invariants across random workloads, and
//    equivalence with a full linear scan per task
//  * whole-market invariants across seeds (conservation, price floors,
//    report sanity)
//  * distributed/serial equivalence across proxy-node counts
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <sstream>

#include "agents/workload_gen.h"
#include "bid/tbbl_flatten.h"
#include "bid/tbbl_parser.h"
#include "cluster/scheduler.h"
#include "common/rng.h"
#include "exchange/market.h"
#include "net/distributed_auction.h"
#include "net/wire.h"

namespace pm {
namespace {

// ------------------------------------------------- random TBBL trees --

/// Builds a random tree. Leaves draw from a pool of (kind, cluster)
/// pairs with positive quantities, so AND products cannot cancel.
std::unique_ptr<bid::TbblNode> RandomTree(RandomStream& rng, int depth) {
  const double leaf_probability = depth >= 3 ? 1.0 : 0.4;
  if (rng.Bernoulli(leaf_probability)) {
    const auto kind = static_cast<ResourceKind>(rng.UniformInt(0, 2));
    const std::string cluster =
        "c" + std::to_string(rng.UniformInt(0, 5));
    // Integer quantities so the ToString → parse round-trip is lossless
    // (the renderer uses default double formatting).
    return bid::TbblNode::Leaf(
        kind, cluster, static_cast<double>(rng.UniformInt(1, 20)));
  }
  const bool is_xor = rng.Bernoulli(0.5);
  const int fanout = static_cast<int>(rng.UniformInt(1, 3));
  std::vector<std::unique_ptr<bid::TbblNode>> children;
  for (int i = 0; i < fanout; ++i) {
    children.push_back(RandomTree(rng, depth + 1));
  }
  return is_xor ? bid::TbblNode::Xor(std::move(children))
                : bid::TbblNode::And(std::move(children));
}

class TbblPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TbblPropertyTest, ExpansionMatchesCountAlternatives) {
  RandomStream rng(9000 + static_cast<std::uint64_t>(GetParam()));
  const auto tree = RandomTree(rng, 0);
  const std::size_t predicted = tree->CountAlternatives(100000);
  PoolRegistry registry;
  std::string error;
  const std::vector<bid::Bundle> bundles =
      bid::FlattenTree(*tree, registry, 100000, error);
  ASSERT_TRUE(error.empty()) << error;
  // Flattening may merge duplicate alternatives only at the Bid level;
  // FlattenTree itself returns the raw expansion.
  EXPECT_EQ(bundles.size(), predicted);
}

TEST_P(TbblPropertyTest, ConcreteSyntaxRoundTripsThroughParser) {
  RandomStream rng(9100 + static_cast<std::uint64_t>(GetParam()));
  const auto tree = RandomTree(rng, 0);
  std::ostringstream source;
  source << "bid \"roundtrip\" limit 123.5 { " << tree->ToString()
         << " }";

  const bid::ParseResult parsed = bid::ParseTbbl(source.str());
  ASSERT_TRUE(parsed.ok()) << parsed.errors[0].ToString();
  ASSERT_EQ(parsed.statements.size(), 1u);

  PoolRegistry reg_a, reg_b;
  std::string err_a, err_b;
  const auto direct = bid::FlattenTree(*tree, reg_a, 100000, err_a);
  const auto reparsed = bid::FlattenTree(*parsed.statements[0].root,
                                         reg_b, 100000, err_b);
  ASSERT_TRUE(err_a.empty() && err_b.empty());
  ASSERT_EQ(direct.size(), reparsed.size());
  // Registries were built in identical interning order, so bundles must
  // match exactly, in order.
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct[i], reparsed[i]) << "alternative " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TbblPropertyTest, ::testing::Range(0, 12));

// ------------------------------------------------ placement invariants --

class PlacementPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PlacementPropertyTest, NeverExceedsCapacityAndUndoRestores) {
  RandomStream rng(7700 + static_cast<std::uint64_t>(GetParam()));

  std::vector<cluster::Machine> machines;
  const int num_machines = static_cast<int>(rng.UniformInt(3, 12));
  for (int m = 0; m < num_machines; ++m) {
    machines.emplace_back(cluster::TaskShape{
        rng.Uniform(8.0, 32.0), rng.Uniform(32.0, 128.0),
        rng.Uniform(4.0, 16.0)});
  }
  const std::vector<cluster::Machine> pristine = machines;

  struct Placed {
    cluster::TaskShape shape;
    cluster::PlacementResult result;
  };
  std::vector<Placed> history;
  for (int round = 0; round < 20; ++round) {
    const cluster::TaskShape shape{rng.Uniform(0.5, 6.0),
                                   rng.Uniform(1.0, 24.0),
                                   rng.Uniform(0.1, 3.0)};
    const int count = static_cast<int>(rng.UniformInt(1, 10));
    cluster::PlacementResult result = PlaceTasks(machines, shape, count);
    EXPECT_EQ(std::accumulate(result.tasks_placed.begin(),
                              result.tasks_placed.end(), 0) +
                  result.tasks_failed,
              count);
    for (const cluster::Machine& m : machines) {
      for (ResourceKind kind : kAllResourceKinds) {
        EXPECT_LE(m.used().Of(kind),
                  m.capacity().Of(kind) * (1.0 + 1e-9) + 1e-9);
        EXPECT_GE(m.used().Of(kind), -1e-9);
      }
    }
    history.push_back(Placed{shape, std::move(result)});
  }
  // Undo everything; machines must return to pristine state.
  for (auto it = history.rbegin(); it != history.rend(); ++it) {
    UndoPlacement(machines, it->shape, it->result);
  }
  for (std::size_t m = 0; m < machines.size(); ++m) {
    for (ResourceKind kind : kAllResourceKinds) {
      EXPECT_NEAR(machines[m].used().Of(kind),
                  pristine[m].used().Of(kind), 1e-6);
    }
  }
}

/// The best-fit rule as a full scan per task: the largest FillAfter
/// among machines that pass CanFit, a strict `>` so ties go to the lowest
/// index. PlaceTasks must pick exactly what this picks.
cluster::PlacementResult LinearBestFit(std::vector<cluster::Machine>& machines,
                                       const cluster::TaskShape& shape,
                                       int count) {
  cluster::PlacementResult result;
  result.tasks_placed.assign(machines.size(), 0);
  for (int t = 0; t < count; ++t) {
    int best = -1;
    double best_fill = 0.0;
    for (std::size_t i = 0; i < machines.size(); ++i) {
      if (!machines[i].CanFit(shape)) continue;
      const double fill = machines[i].FillAfter(shape);
      if (best < 0 || fill > best_fill) {
        best = static_cast<int>(i);
        best_fill = fill;
      }
    }
    if (best < 0) {
      result.tasks_failed = count - t;
      break;
    }
    machines[static_cast<std::size_t>(best)].Place(shape);
    ++result.tasks_placed[static_cast<std::size_t>(best)];
  }
  return result;
}

TEST_P(PlacementPropertyTest, MatchesLinearBestFitScan) {
  RandomStream rng(9100 + static_cast<std::uint64_t>(GetParam()));
  int short_calls = 0;  // Calls that ran out of room part-way.
  int diskless_picks = 0;
  for (int fleet = 0; fleet < 8; ++fleet) {
    // Odd fleets are identical machines with whole-unit shapes, so fills
    // tie exactly; even fleets are heterogeneous. Machine 0 has no disk.
    const bool identical = fleet % 2 == 1;
    std::vector<cluster::Machine> machines;
    const int num_machines = static_cast<int>(rng.UniformInt(2, 24));
    for (int m = 0; m < num_machines; ++m) {
      cluster::TaskShape capacity =
          identical ? cluster::TaskShape{16.0, 64.0, 8.0}
                    : cluster::TaskShape{rng.Uniform(4.0, 32.0),
                                         rng.Uniform(16.0, 128.0),
                                         rng.Uniform(2.0, 16.0)};
      if (m == 0) capacity.disk_tb = 0.0;
      machines.emplace_back(capacity);
    }
    std::vector<cluster::Machine> reference = machines;

    struct Placed {
      cluster::TaskShape shape;
      cluster::PlacementResult result;
    };
    std::vector<Placed> history;
    for (int round = 0; round < 30; ++round) {
      cluster::TaskShape shape =
          identical ? cluster::TaskShape{
                          static_cast<double>(rng.UniformInt(1, 4)),
                          static_cast<double>(rng.UniformInt(2, 16)),
                          static_cast<double>(rng.UniformInt(1, 2))}
                    : cluster::TaskShape{rng.Uniform(0.25, 6.0),
                                         rng.Uniform(1.0, 24.0),
                                         rng.Uniform(0.1, 3.0)};
      // Zero demand in a kind: when that kind sets a machine's fill, a
      // pick leaves its fill unchanged and the tie rule decides.
      for (ResourceKind kind : kAllResourceKinds) {
        if (rng.Bernoulli(0.3)) shape.Of(kind) = 0.0;
      }
      // Up to 3 tasks per machine a call; with few undos the fleet fills
      // over the rounds, so later calls fail part-way.
      const int count = static_cast<int>(rng.UniformInt(0, 3 * num_machines));

      const cluster::PlacementResult got = PlaceTasks(machines, shape, count);
      const cluster::PlacementResult want =
          LinearBestFit(reference, shape, count);
      ASSERT_EQ(got.tasks_placed, want.tasks_placed)
          << "fleet " << fleet << " round " << round;
      ASSERT_EQ(got.tasks_failed, want.tasks_failed)
          << "fleet " << fleet << " round " << round;
      for (std::size_t m = 0; m < machines.size(); ++m) {
        ASSERT_EQ(machines[m].used(), reference[m].used())
            << "fleet " << fleet << " round " << round << " machine " << m;
      }
      short_calls += got.tasks_failed > 0 ? 1 : 0;
      diskless_picks += got.tasks_placed[0];
      history.push_back(Placed{shape, got});
      // Free an earlier placement now and then, as a failed or removed
      // job does, so fills also fall between calls.
      if (rng.Bernoulli(0.25)) {
        const auto victim = static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(history.size()) - 1));
        UndoPlacement(machines, history[victim].shape, history[victim].result);
        UndoPlacement(reference, history[victim].shape,
                      history[victim].result);
        history.erase(history.begin() +
                      static_cast<std::ptrdiff_t>(victim));
      }
    }
  }
  EXPECT_GT(short_calls, 0);
  EXPECT_GT(diskless_picks, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementPropertyTest, ::testing::Range(0, 6));

// A pick whose fill does not change (the task has no demand in the kind
// that sets the fill) must not lose its tie to a higher index: the
// linear scan keeps filling machine 0. A heap ordered on fill alone
// alternates between the two.
TEST(BestFitTieTest, UnchangedFillStaysOnLowestIndex) {
  std::vector<cluster::Machine> machines(
      2, cluster::Machine(cluster::TaskShape{10.0, 10.0, 10.0}));
  for (cluster::Machine& m : machines) m.Place({8.0, 0.0, 0.0});
  // cpu sets both fills at 0.8; ram stays below that for 8 tasks.
  const cluster::PlacementResult r =
      PlaceTasks(machines, cluster::TaskShape{0.0, 1.0, 0.0}, 4);
  EXPECT_EQ(r.tasks_placed, (std::vector<int>{4, 0}));
  EXPECT_EQ(r.tasks_failed, 0);
}

// --------------------------------------------------- market invariants --

class MarketPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MarketPropertyTest, AuctionRoundInvariants) {
  agents::WorkloadConfig workload;
  workload.num_clusters = 8;
  workload.num_teams = 28;
  workload.min_machines_per_cluster = 12;
  workload.max_machines_per_cluster = 24;
  workload.seed = 5000 + static_cast<std::uint64_t>(GetParam());
  agents::World world = GenerateWorld(workload);
  exchange::MarketConfig config;
  exchange::Market market(&world.fleet, &world.agents,
                          world.fixed_prices, config);

  for (int round = 0; round < 3; ++round) {
    const exchange::AuctionReport report = market.RunAuction();
    // Conservation: total money never created or destroyed.
    EXPECT_EQ(market.ledger().TotalBalance(), Money());
    // Prices respect the reserve floor.
    ASSERT_EQ(report.settled_prices.size(),
              report.reserve_prices.size());
    for (std::size_t r = 0; r < report.settled_prices.size(); ++r) {
      EXPECT_GE(report.settled_prices[r],
                report.reserve_prices[r] - 1e-9);
    }
    // Report sanity.
    EXPECT_LE(report.num_winners, report.num_bids);
    for (const exchange::TradeSample& t : report.trades) {
      EXPECT_GE(t.util_percentile, 0.0);
      EXPECT_LE(t.util_percentile, 100.0);
      EXPECT_GT(t.qty, 0.0);
    }
    // Fleet stays physically sane.
    for (double u : report.post_utilization) {
      EXPECT_GE(u, -1e-9);
      EXPECT_LE(u, 1.0 + 1e-9);
    }
    // No budget account may end negative (only the treasury can).
    for (const agents::TeamAgent& agent : world.agents) {
      EXPECT_GE(market.TeamBudget(agent.profile().name), Money());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MarketPropertyTest,
                         ::testing::Range(0, 8));

// -------------------------------------- distributed equivalence sweep --

class DistributedSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(DistributedSweepTest, AnyNodeCountMatchesSerial) {
  RandomStream rng(3300);
  constexpr std::size_t kPools = 6;
  std::vector<double> supply(kPools), reserve(kPools);
  for (std::size_t r = 0; r < kPools; ++r) {
    supply[r] = rng.Uniform(5.0, 30.0);
    reserve[r] = rng.Uniform(0.5, 2.0);
  }
  std::vector<bid::Bid> bids;
  for (UserId u = 0; u < 37; ++u) {
    bid::Bid b;
    b.user = u;
    b.name = "u" + std::to_string(u);
    const auto pool = static_cast<PoolId>(rng.UniformInt(0, kPools - 1));
    const double qty = rng.Uniform(1.0, 5.0);
    b.bundles = {bid::Bundle({bid::BundleItem{pool, qty}})};
    b.limit = qty * reserve[pool] * rng.Uniform(1.1, 3.0);
    bids.push_back(std::move(b));
  }
  const auction::ClockAuction auction(std::move(bids), std::move(supply),
                                      std::move(reserve));
  auction::ClockAuctionConfig config;
  config.alpha = 0.4;
  config.delta = 0.08;
  const auction::ClockAuctionResult serial = auction.Run(config);

  net::DistributedConfig dist;
  dist.num_proxy_nodes = static_cast<std::size_t>(GetParam());
  dist.auction = config;
  const net::DistributedResult d = RunDistributedAuction(auction, dist);
  EXPECT_EQ(serial.prices, d.result.prices);
  EXPECT_EQ(serial.rounds, d.result.rounds);
  EXPECT_EQ(d.transport.decode_failures, 0);
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, DistributedSweepTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// ----------------------------------------------- robustness fuzzing --

class FuzzSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSweepTest, WireDecodersNeverCrashOnGarbage) {
  RandomStream rng(4400 + static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> frame(
        static_cast<std::size_t>(rng.UniformInt(0, 64)));
    for (auto& byte : frame) {
      byte = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
    }
    // Random bytes must be rejected cleanly, never crash or throw.
    EXPECT_NO_THROW({
      (void)net::PeekType(frame);
      (void)net::DecodePriceAnnounce(frame);
      (void)net::DecodeDemandReply(frame);
    });
  }
}

TEST_P(FuzzSweepTest, CorruptedRealFramesAreRejectedOrEqual) {
  RandomStream rng(4500 + static_cast<std::uint64_t>(GetParam()));
  net::PriceAnnounce msg;
  msg.collection = 12;
  for (int i = 0; i < 16; ++i) msg.prices.push_back(rng.Uniform(0, 10));
  const std::vector<std::uint8_t> good = net::Encode(msg);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint8_t> frame = good;
    const auto pos = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(frame.size()) - 1));
    const auto bit = static_cast<int>(rng.UniformInt(0, 7));
    frame[pos] ^= static_cast<std::uint8_t>(1 << bit);
    // A flipped bit must never yield a *different* successfully decoded
    // message: the checksum catches it.
    const auto decoded = net::DecodePriceAnnounce(frame);
    EXPECT_FALSE(decoded.has_value());
  }
}

TEST_P(FuzzSweepTest, ParserNeverCrashesOnTokenSoup) {
  RandomStream rng(4600 + static_cast<std::uint64_t>(GetParam()));
  const char* fragments[] = {"bid",  "offer",  "limit", "min",
                             "xor",  "and",    "{",     "}",
                             ":",    "@",      "cpu",   "ram",
                             "disk", "\"t\"",  "3.5",   "-2",
                             "c1",   "###",    "\n",    "\"", "$"};
  for (int i = 0; i < 150; ++i) {
    std::string source;
    const int tokens = static_cast<int>(rng.UniformInt(0, 40));
    for (int t = 0; t < tokens; ++t) {
      source += fragments[rng.UniformInt(
          0, static_cast<std::int64_t>(std::size(fragments)) - 1)];
      source += ' ';
    }
    EXPECT_NO_THROW({
      PoolRegistry registry;
      const bid::FlattenOutcome out =
          bid::CompileBids(source, registry);
      // Either it compiled or it reported an error; both are fine.
      if (!out.ok()) EXPECT_FALSE(out.error.empty());
    }) << source;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweepTest, ::testing::Range(0, 4));

}  // namespace
}  // namespace pm
