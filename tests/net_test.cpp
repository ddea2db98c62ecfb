// Tests for pm::net: channels, serializer, wire protocol, and the
// distributed clock auction's equivalence with the serial engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "auction/settlement.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "net/channel.h"
#include "net/distributed_auction.h"
#include "net/serializer.h"
#include "net/wire.h"

namespace pm::net {
namespace {

// ----------------------------------------------------------------- channel --

TEST(ChannelTest, FifoOrder) {
  Channel<int> ch;
  for (int i = 0; i < 5; ++i) ch.Push(i);
  for (int i = 0; i < 5; ++i) {
    const auto v = ch.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(ChannelTest, TryPopOnEmptyReturnsNullopt) {
  Channel<int> ch;
  EXPECT_FALSE(ch.TryPop().has_value());
  ch.Push(7);
  EXPECT_EQ(ch.TryPop(), 7);
}

TEST(ChannelTest, CloseWakesBlockedPop) {
  Channel<int> ch;
  std::thread waiter([&ch] {
    const auto v = ch.Pop();
    EXPECT_FALSE(v.has_value());
  });
  ch.Close();
  waiter.join();
}

TEST(ChannelTest, PendingMessagesSurviveClose) {
  Channel<int> ch;
  ch.Push(1);
  ch.Close();
  EXPECT_FALSE(ch.Push(2));  // No pushes after close.
  EXPECT_EQ(ch.Pop(), 1);
  EXPECT_FALSE(ch.Pop().has_value());
}

TEST(ChannelTest, CrossThreadDelivery) {
  Channel<int> ch;
  std::thread producer([&ch] {
    for (int i = 0; i < 100; ++i) ch.Push(i);
    ch.Close();
  });
  int expected = 0;
  while (const auto v = ch.Pop()) {
    EXPECT_EQ(*v, expected++);
  }
  EXPECT_EQ(expected, 100);
  producer.join();
}

// -------------------------------------------------------------- serializer --

TEST(SerializerTest, RoundTripsScalars) {
  Serializer s;
  s.WriteU8(0xAB);
  s.WriteU32(0xDEADBEEF);
  s.WriteU64(0x0123456789ABCDEFULL);
  s.WriteI32(-42);
  s.WriteI64(-1LL << 40);
  s.WriteDouble(3.14159);
  s.WriteString("hello");
  Deserializer d(std::move(s).FinishWithChecksum());
  ASSERT_TRUE(d.VerifyChecksum());
  EXPECT_EQ(d.ReadU8(), 0xAB);
  EXPECT_EQ(d.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(d.ReadU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(d.ReadI32(), -42);
  EXPECT_EQ(d.ReadI64(), -1LL << 40);
  EXPECT_EQ(d.ReadDouble(), 3.14159);
  EXPECT_EQ(d.ReadString(), "hello");
  EXPECT_TRUE(d.Exhausted());
}

TEST(SerializerTest, RoundTripsDoubleVectorsBitExact) {
  Serializer s;
  const std::vector<double> v = {0.0, -0.0, 1e-300, 1e300,
                                 3.141592653589793};
  s.WriteDoubleVector(v);
  Deserializer d(std::move(s).FinishWithChecksum());
  ASSERT_TRUE(d.VerifyChecksum());
  const auto out = d.ReadDoubleVector();
  ASSERT_TRUE(out.has_value());
  ASSERT_EQ(out->size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>((*out)[i]),
              std::bit_cast<std::uint64_t>(v[i]));
  }
}

TEST(SerializerTest, CorruptionFailsChecksum) {
  Serializer s;
  s.WriteU32(12345);
  std::vector<std::uint8_t> frame = std::move(s).FinishWithChecksum();
  frame[1] ^= 0x01;
  Deserializer d(std::move(frame));
  EXPECT_FALSE(d.VerifyChecksum());
}

TEST(SerializerTest, TruncationReturnsNullopt) {
  Serializer s;
  s.WriteU32(7);
  Deserializer d(std::move(s).FinishWithChecksum());
  ASSERT_TRUE(d.VerifyChecksum());
  EXPECT_TRUE(d.ReadU32().has_value());
  EXPECT_FALSE(d.ReadU32().has_value());  // Past the payload.
  EXPECT_FALSE(d.ReadU64().has_value());
}

TEST(SerializerTest, ReadBeforeVerifyThrows) {
  Serializer s;
  s.WriteU8(1);
  Deserializer d(std::move(s).FinishWithChecksum());
  EXPECT_THROW(d.ReadU8(), pm::CheckFailure);
}

TEST(SerializerTest, TooShortFrameFailsVerification) {
  Deserializer d(std::vector<std::uint8_t>{1, 2, 3});
  EXPECT_FALSE(d.VerifyChecksum());
}

TEST(SerializerTest, DoubleVectorCountBeyondPayloadReturnsNullopt) {
  // A checksum-valid frame whose count claims far more doubles than it
  // holds: the reader must refuse before allocating for the count.
  Serializer s;
  s.WriteU32(0xFFFFFFFFu);
  s.WriteDouble(1.0);
  Deserializer d(std::move(s).FinishWithChecksum());
  ASSERT_TRUE(d.VerifyChecksum());
  EXPECT_FALSE(d.ReadDoubleVector().has_value());
}

TEST(SerializerTest, FrameChecksumIsStable) {
  // 13 bytes: one little-endian word, then a 5-byte tail folded in byte
  // by byte.
  const std::string text = "hello, world!";
  const auto* data = reinterpret_cast<const std::uint8_t*>(text.data());
  EXPECT_EQ(FrameChecksum(data, text.size()), 0x160db91c522ac6a5ULL);
  EXPECT_EQ(FrameChecksum(data, 0), 0xcbf29ce484222325ULL);
}

TEST(SerializerTest, EverySingleBitFlipFailsChecksum) {
  // 29 payload bytes (three words and a 5-byte tail) + the 8-byte
  // trailer: a 37-byte frame.
  Serializer s;
  s.WriteU64(0x0123456789ABCDEFULL);
  s.WriteU64(0);
  s.WriteU64(~0ULL);
  s.WriteU32(0xDEADBEEF);
  s.WriteU8(0x5A);
  const std::vector<std::uint8_t> frame = std::move(s).FinishWithChecksum();
  ASSERT_EQ(frame.size(), 37u);
  ASSERT_TRUE(Deserializer(frame).VerifyChecksum());
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> flipped = frame;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(Deserializer(std::move(flipped)).VerifyChecksum())
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(SerializerTest, FnvIsStable) {
  const std::uint8_t data[] = {'a', 'b', 'c'};
  // Reference FNV-1a 64-bit of "abc" (FleetRebalancer::TieRank's hash).
  EXPECT_EQ(Fnv1a(data, 3), 0xe71fa2190541574bULL);
}

// ------------------------------------------------------------------- wire --

TEST(WireTest, PriceAnnounceRoundTrip) {
  PriceAnnounce msg;
  msg.collection = 17;
  msg.prices = {1.5, 0.0, 42.0};
  const auto decoded = DecodePriceAnnounce(Encode(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->collection, 17);
  EXPECT_EQ(decoded->prices, msg.prices);
}

TEST(WireTest, DemandReplyRoundTrip) {
  DemandReply msg;
  msg.collection = 3;
  msg.node = 2;
  msg.decisions = {WireDecision{0, 1, 12.5}, WireDecision{7, -1, 0.0}};
  const auto decoded = DecodeDemandReply(Encode(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->node, 2u);
  ASSERT_EQ(decoded->decisions.size(), 2u);
  EXPECT_EQ(decoded->decisions[0].bundle_index, 1);
  EXPECT_EQ(decoded->decisions[1].bundle_index, -1);
}

TEST(WireTest, DemandReplyCountBeyondPayloadReturnsNullopt) {
  // A checksum-valid reply whose decision count claims 2^32 - 1 entries
  // but carries one: decoding refuses it before reserving for the count.
  Serializer s;
  s.WriteU8(static_cast<std::uint8_t>(MessageType::kDemandReply));
  s.WriteI32(3);
  s.WriteU32(2);
  s.WriteU32(0xFFFFFFFFu);
  s.WriteU32(0);
  s.WriteI32(1);
  s.WriteDouble(12.5);
  EXPECT_FALSE(DecodeDemandReply(std::move(s).FinishWithChecksum())
                   .has_value());
}

TEST(WireTest, PeekTypeIdentifiesFrames) {
  EXPECT_EQ(PeekType(Encode(PriceAnnounce{})),
            MessageType::kPriceAnnounce);
  EXPECT_EQ(PeekType(Encode(DemandReply{})), MessageType::kDemandReply);
  EXPECT_EQ(PeekType(Encode(Terminate{})), MessageType::kTerminate);
}

TEST(WireTest, WrongTypeDecodeFails) {
  EXPECT_FALSE(DecodePriceAnnounce(Encode(Terminate{})).has_value());
  EXPECT_FALSE(DecodeDemandReply(Encode(PriceAnnounce{})).has_value());
}

TEST(WireTest, CorruptFrameFails) {
  auto frame = Encode(PriceAnnounce{1, {2.0}});
  frame[frame.size() / 2] ^= 0xFF;
  EXPECT_FALSE(PeekType(frame).has_value());
  EXPECT_FALSE(DecodePriceAnnounce(std::move(frame)).has_value());
}

// ---------------------------------------------------- distributed auction --

auction::ClockAuction RandomAuction(std::uint64_t seed,
                                    std::size_t num_users) {
  RandomStream rng(seed);
  constexpr std::size_t kPools = 5;
  std::vector<double> supply(kPools), reserve(kPools);
  for (std::size_t r = 0; r < kPools; ++r) {
    supply[r] = rng.Uniform(5.0, 40.0);
    reserve[r] = rng.Uniform(0.5, 3.0);
  }
  std::vector<bid::Bid> bids;
  for (std::size_t u = 0; u < num_users; ++u) {
    bid::Bid b;
    b.user = static_cast<UserId>(u);
    b.name = "u" + std::to_string(u);
    const bool seller = rng.Bernoulli(0.2);
    const auto pool =
        static_cast<PoolId>(rng.UniformInt(0, kPools - 1));
    const double qty = rng.Uniform(1.0, 6.0) * (seller ? -1 : 1);
    b.bundles = {bid::Bundle({bid::BundleItem{pool, qty}})};
    b.limit = seller ? -std::abs(qty) * reserve[pool] * 0.5
                     : std::abs(qty) * reserve[pool] *
                           rng.Uniform(1.0, 4.0);
    bids.push_back(std::move(b));
  }
  return auction::ClockAuction(std::move(bids), std::move(supply),
                               std::move(reserve));
}

/// One named ClockAuctionConfig for the serial-vs-wire equivalence tests.
struct NamedConfig {
  std::string name;
  auction::ClockAuctionConfig config;
};

/// Every knob of the one auction loop, each of which the wire path must
/// run exactly like the serial path: the plain clock, the market default
/// (multiplicative steps + intra-round bisection), trajectory recording,
/// binding price caps, and a caller thread pool.
std::vector<NamedConfig> EquivalenceConfigs(const auction::ClockAuction& a,
                                            ThreadPool* pool) {
  auction::ClockAuctionConfig plain;
  plain.alpha = 0.4;
  plain.delta = 0.08;
  std::vector<NamedConfig> configs(5, NamedConfig{"plain", plain});
  configs[1].name = "bisection";
  configs[1].config.policy_kind =
      auction::ClockAuctionConfig::PolicyKind::kMultiplicative;
  configs[1].config.demand_eps = 2e-3;
  configs[1].config.intra_round_bisection = true;
  configs[2].name = "trajectory";
  configs[2].config.record_trajectory = true;
  configs[3].name = "caps";
  for (const double reserve : a.reserve_prices()) {
    configs[3].config.price_caps.push_back(reserve * 1.1);
  }
  configs[4].name = "pool";
  configs[4].config.thread_pool = pool;
  return configs;
}

/// Runs every EquivalenceConfigs input on seeds 1-3 serially and over a
/// 4-node wire with `faults`, and asserts the results are bit-identical.
void ExpectWireMatchesSerial(const FaultConfig& faults) {
  ThreadPool pool(2);
  bool caps_bound = false;
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const auction::ClockAuction auction = RandomAuction(seed, 30);
    for (const NamedConfig& c : EquivalenceConfigs(auction, &pool)) {
      SCOPED_TRACE(c.name + " seed " + std::to_string(seed));
      const auction::ClockAuctionResult serial = auction.Run(c.config);
      caps_bound |= !serial.capped_pools.empty();

      DistributedConfig dist;
      dist.num_proxy_nodes = 4;
      dist.auction = c.config;
      dist.faults = faults;
      dist.faults.seed ^= seed;
      const DistributedResult wire = RunDistributedAuction(auction, dist);
      const auction::ClockAuctionResult& w = wire.result;
      ASSERT_EQ(serial.converged, w.converged);
      EXPECT_EQ(serial.rounds, w.rounds);
      EXPECT_EQ(serial.prices, w.prices);  // Bit-exact.
      EXPECT_EQ(serial.excess, w.excess);
      EXPECT_EQ(serial.capped_pools, w.capped_pools);
      EXPECT_EQ(serial.demand_evaluations, w.demand_evaluations);
      EXPECT_EQ(serial.bisection_probes, w.bisection_probes);
      for (std::size_t u = 0; u < auction.NumUsers(); ++u) {
        EXPECT_EQ(serial.decisions[u].bundle_index,
                  w.decisions[u].bundle_index);
        EXPECT_EQ(serial.decisions[u].cost, w.decisions[u].cost);
      }
      ASSERT_EQ(serial.trajectory.size(), w.trajectory.size());
      for (std::size_t t = 0; t < serial.trajectory.size(); ++t) {
        EXPECT_EQ(serial.trajectory[t].prices, w.trajectory[t].prices);
        EXPECT_EQ(serial.trajectory[t].excess, w.trajectory[t].excess);
      }
      // Per collection one announce and one reply per node; plus the
      // terminates.
      const long long collections =
          w.demand_evaluations / static_cast<long long>(auction.NumUsers());
      EXPECT_EQ(wire.transport.messages_sent, 2 * 4 * collections + 4);
      EXPECT_EQ(wire.transport.decode_failures, 0);
      if (faults.Enabled()) {
        // The wire must actually have been hostile.
        EXPECT_GT(wire.transport.frames_dropped, 0);
        EXPECT_GT(wire.transport.frames_duplicated, 0);
        EXPECT_GT(wire.transport.frames_stale, 0);
        EXPECT_EQ(wire.transport.frames_retried,
                  wire.transport.frames_dropped);
      }
    }
  }
  EXPECT_TRUE(caps_bound) << "the caps input must pin some pool";
}

TEST(DistributedAuctionTest, MatchesSerialExactly) {
  ExpectWireMatchesSerial(FaultConfig{});
}

TEST(DistributedAuctionTest, MatchesSerialExactlyUnderLossyWire) {
  // Drops, duplicates and stale redeliveries on every link must be
  // absorbed by the retry/dedup layer without perturbing a single bit of
  // the result.
  FaultConfig faults;
  faults.drop = 0.10;
  faults.duplicate = 0.10;
  faults.delay_window = 2;
  faults.max_retries = 8;  // Never plausibly exhausted at 10%.
  faults.seed = 0xfa;
  ExpectWireMatchesSerial(faults);
}

TEST(DistributedAuctionTest, LossyWireIsDeterministicPerSeed) {
  const auction::ClockAuction auction = RandomAuction(21, 25);
  DistributedConfig dist;
  dist.auction.alpha = 0.4;
  dist.auction.delta = 0.08;
  dist.faults.drop = 0.08;
  dist.faults.duplicate = 0.08;
  dist.faults.delay_window = 1;
  dist.faults.max_retries = 8;
  dist.faults.seed = 99;
  const DistributedResult a = RunDistributedAuction(auction, dist);
  const DistributedResult b = RunDistributedAuction(auction, dist);
  EXPECT_EQ(a.transport.frames_dropped, b.transport.frames_dropped);
  EXPECT_EQ(a.transport.frames_duplicated, b.transport.frames_duplicated);
  EXPECT_EQ(a.transport.frames_stale, b.transport.frames_stale);
  EXPECT_EQ(a.transport.messages_sent, b.transport.messages_sent);
  EXPECT_EQ(a.result.prices, b.result.prices);
}

TEST(DistributedAuctionTest, RetryExhaustionThrowsLinkDown) {
  // A wire so bad the bounded retry gives up: the run must fail loudly
  // (the federation supervisor turns this into a contained shard
  // failure), never silently desync.
  const auction::ClockAuction auction = RandomAuction(23, 20);
  DistributedConfig dist;
  dist.auction.alpha = 0.4;
  dist.auction.delta = 0.08;
  dist.faults.drop = 0.95;
  dist.faults.max_retries = 2;
  dist.faults.seed = 7;
  EXPECT_THROW(RunDistributedAuction(auction, dist), pm::CheckFailure);
}

TEST(DistributedAuctionTest, MessageCountMatchesProtocol) {
  const auction::ClockAuction auction = RandomAuction(7, 20);
  DistributedConfig dist;
  dist.num_proxy_nodes = 4;
  dist.auction.alpha = 0.4;
  dist.auction.delta = 0.08;
  const DistributedResult r = RunDistributedAuction(auction, dist);
  ASSERT_TRUE(r.result.converged);
  // Per round: 4 announces + 4 replies; plus 4 terminates.
  const long long expected =
      static_cast<long long>(r.result.rounds) * 8 + 4;
  EXPECT_EQ(r.transport.messages_sent, expected);
  EXPECT_GT(r.transport.bytes_sent, 0);
}

TEST(DistributedAuctionTest, SingleNodeWorks) {
  const auction::ClockAuction auction = RandomAuction(9, 10);
  DistributedConfig dist;
  dist.num_proxy_nodes = 1;
  dist.auction.alpha = 0.4;
  dist.auction.delta = 0.08;
  const DistributedResult r = RunDistributedAuction(auction, dist);
  EXPECT_TRUE(r.result.converged);
}

TEST(DistributedAuctionTest, MoreNodesThanUsersWorks) {
  const auction::ClockAuction auction = RandomAuction(11, 3);
  DistributedConfig dist;
  dist.num_proxy_nodes = 16;
  dist.auction.alpha = 0.4;
  dist.auction.delta = 0.08;
  const DistributedResult r = RunDistributedAuction(auction, dist);
  EXPECT_TRUE(r.result.converged);
}

TEST(DistributedAuctionTest, SettlementWorksOnDistributedResult) {
  const auction::ClockAuction auction = RandomAuction(13, 25);
  DistributedConfig dist;
  dist.auction.alpha = 0.4;
  dist.auction.delta = 0.08;
  const DistributedResult r = RunDistributedAuction(auction, dist);
  ASSERT_TRUE(r.result.converged);
  const auction::Settlement s = auction::Settle(auction, r.result);
  EXPECT_EQ(s.awards.size() + s.losers.size(), auction.NumUsers());
}

TEST(DistributedAuctionTest, ConfigErrorThrowsAfterJoiningTheNodes) {
  // The policy is built by the shared loop while the proxy-node threads
  // are already running; the failure must surface as a CheckFailure,
  // not kill the process with joinable threads.
  const auction::ClockAuction auction = RandomAuction(15, 5);
  DistributedConfig dist;
  dist.auction.policy_kind =
      auction::ClockAuctionConfig::PolicyKind::kCostNormalized;
  EXPECT_THROW(RunDistributedAuction(auction, dist), pm::CheckFailure);
}

}  // namespace
}  // namespace pm::net
