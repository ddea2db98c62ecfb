// Reproduces Figures 1 and 5: the auctioneer ↔ bidder-proxy price-update
// loop as an actual distributed protocol. Runs the same market serially
// and distributed (proxy nodes on threads exchanging serialized frames)
// and reports: result equivalence, message counts (2 per node per round
// + terminates), bytes on the wire, and wall-clock per round.
//
// Shape to match: identical prices and allocations to the serial engine;
// message count exactly (announce + reply) × nodes × rounds + terminates.
#include <chrono>
#include <iostream>
#include <memory>

#include "common/rng.h"
#include "common/table.h"
#include "net/distributed_auction.h"
#include "common/bench_meta.h"
#include "common/thread_pool.h"

namespace {

pm::auction::ClockAuction MakeMarket(std::uint64_t seed, int users,
                                     int pools) {
  pm::RandomStream rng(seed);
  std::vector<double> supply(pools), reserve(pools);
  for (int r = 0; r < pools; ++r) {
    supply[static_cast<std::size_t>(r)] = rng.Uniform(10.0, 80.0);
    reserve[static_cast<std::size_t>(r)] = rng.Uniform(0.5, 4.0);
  }
  std::vector<pm::bid::Bid> bids;
  for (int u = 0; u < users; ++u) {
    pm::bid::Bid b;
    b.user = static_cast<pm::UserId>(u);
    b.name = "u" + std::to_string(u);
    const bool seller = rng.Bernoulli(0.2);
    std::vector<pm::bid::BundleItem> items;
    const int n = static_cast<int>(rng.UniformInt(1, 3));
    for (int i = 0; i < n; ++i) {
      items.push_back(pm::bid::BundleItem{
          static_cast<pm::PoolId>(rng.UniformInt(0, pools - 1)),
          rng.Uniform(1.0, 5.0) * (seller ? -1.0 : 1.0)});
    }
    pm::bid::Bundle bundle(std::move(items));
    if (bundle.Empty()) continue;
    const double reserve_cost = std::abs(bundle.Dot(reserve));
    b.limit = seller ? -reserve_cost * rng.Uniform(0.3, 0.9)
                     : reserve_cost * rng.Uniform(1.2, 3.5);
    b.bundles = {std::move(bundle)};
    bids.push_back(std::move(b));
  }
  pm::bid::AssignUserIds(bids);
  return pm::auction::ClockAuction(std::move(bids), std::move(supply),
                                   std::move(reserve));
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned threads = pm::ParseOrExit(
      pm::kUsageExit, [&] { return pm::ParseThreadsFlag(&argc, argv, 0); });
  // --threads: size of the shared auction pool (0/1 = serial).
  std::unique_ptr<pm::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<pm::ThreadPool>(threads);

  std::cout << "=== Distributed price-update loop (Figures 1 & 5) "
               "===\n\n";
  pm::TextTable table({"users", "proxy nodes", "rounds", "identical",
                       "messages", "KiB on wire", "serial ms",
                       "distributed ms"});

  for (const int users : {50, 100, 200}) {
    const pm::auction::ClockAuction market = MakeMarket(99, users, 30);
    pm::auction::ClockAuctionConfig config;
    config.policy_kind =
        pm::auction::ClockAuctionConfig::PolicyKind::kMultiplicative;
    config.alpha = 0.4;
    config.delta = 0.08;
    config.thread_pool = pool.get();

    const auto t0 = std::chrono::steady_clock::now();
    const pm::auction::ClockAuctionResult serial = market.Run(config);
    const double serial_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();

    for (const std::size_t nodes : {2u, 4u, 8u}) {
      pm::net::DistributedConfig dist;
      dist.num_proxy_nodes = nodes;
      dist.auction = config;
      const auto t1 = std::chrono::steady_clock::now();
      const pm::net::DistributedResult d =
          RunDistributedAuction(market, dist);
      const double dist_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t1)
              .count();
      const bool identical =
          serial.prices == d.result.prices &&
          serial.rounds == d.result.rounds;
      table.AddRow({std::to_string(users), std::to_string(nodes),
                    std::to_string(d.result.rounds),
                    identical ? "yes" : "NO",
                    std::to_string(d.transport.messages_sent),
                    pm::FormatF(static_cast<double>(
                                    d.transport.bytes_sent) /
                                    1024.0,
                                1),
                    pm::FormatF(serial_ms, 2),
                    pm::FormatF(dist_ms, 2)});
    }
  }
  std::cout << table.Render() << '\n'
            << "shape check: the distributed loop reproduces the serial "
               "clock bit-for-bit; per round each proxy node receives "
               "one PriceAnnounce and sends one DemandReply\n";
  return 0;
}
