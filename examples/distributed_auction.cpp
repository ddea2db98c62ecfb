// The Figure 1 price-update loop, run for real: an auctioneer thread and
// N bidder-proxy nodes exchanging serialized PriceAnnounce / DemandReply
// frames over channels, next to the serial engine for comparison.
//
//   $ ./distributed_auction [users] [proxy_nodes]
#include <cmath>
#include <iostream>

#include "common/bench_meta.h"
#include "common/rng.h"
#include "common/table.h"
#include "net/distributed_auction.h"

int main(int argc, char** argv) {
  const int users = pm::ParseOrExit(pm::kUsageExit, [&] {
    return argc > 1 ? pm::ParseNumberArg("users", argv[1], 1) : 80;
  });
  const std::size_t nodes = pm::ParseOrExit(pm::kUsageExit, [&] {
    return argc > 2
               ? pm::ParseNumberArg<std::uint64_t>("proxy_nodes", argv[2], 1)
               : 4;
  });

  // A market of mostly buyers with a few sellers over 12 pools.
  pm::RandomStream rng(4242);
  constexpr int kPools = 12;
  std::vector<double> supply(kPools), reserve(kPools);
  for (int r = 0; r < kPools; ++r) {
    supply[static_cast<std::size_t>(r)] = rng.Uniform(20.0, 60.0);
    reserve[static_cast<std::size_t>(r)] = rng.Uniform(0.5, 3.0);
  }
  std::vector<pm::bid::Bid> bids;
  for (int u = 0; u < users; ++u) {
    pm::bid::Bid b;
    b.user = static_cast<pm::UserId>(u);
    b.name = "team-" + std::to_string(u);
    const bool seller = rng.Bernoulli(0.15);
    const auto pool = static_cast<pm::PoolId>(rng.UniformInt(0, kPools - 1));
    const double qty = rng.Uniform(1.0, 6.0) * (seller ? -1.0 : 1.0);
    b.bundles = {pm::bid::Bundle({pm::bid::BundleItem{pool, qty}})};
    b.limit = seller
                  ? -std::abs(qty) * reserve[pool] * rng.Uniform(0.3, 0.8)
                  : std::abs(qty) * reserve[pool] * rng.Uniform(1.2, 4.0);
    bids.push_back(std::move(b));
  }
  pm::bid::AssignUserIds(bids);
  pm::auction::ClockAuction auction(std::move(bids), std::move(supply),
                                    std::move(reserve));

  pm::auction::ClockAuctionConfig config;
  config.alpha = 0.4;
  config.delta = 0.08;

  std::cout << "running the clock serially..." << std::endl;
  const pm::auction::ClockAuctionResult serial = auction.Run(config);

  std::cout << "running the Figure 1 loop with " << nodes
            << " proxy nodes on threads..." << std::endl;
  pm::net::DistributedConfig dist;
  dist.num_proxy_nodes = nodes;
  dist.auction = config;
  const pm::net::DistributedResult distributed =
      RunDistributedAuction(auction, dist);

  pm::TextTable table({"metric", "serial", "distributed"});
  table.AddRow({"rounds", std::to_string(serial.rounds),
                std::to_string(distributed.result.rounds)});
  table.AddRow({"converged", serial.converged ? "yes" : "no",
                distributed.result.converged ? "yes" : "no"});
  table.AddRow({"demand evaluations",
                std::to_string(serial.demand_evaluations),
                std::to_string(distributed.result.demand_evaluations)});
  table.AddRow({"messages", "-",
                std::to_string(distributed.transport.messages_sent)});
  table.AddRow({"bytes on wire", "-",
                std::to_string(distributed.transport.bytes_sent)});
  table.AddRow({"decode failures", "-",
                std::to_string(distributed.transport.decode_failures)});
  std::cout << table.Render() << '\n';

  const bool identical = serial.prices == distributed.result.prices;
  std::cout << "price vectors are "
            << (identical ? "BIT-IDENTICAL" : "DIFFERENT — bug!")
            << " between the two engines\n";

  pm::TextTable prices({"pool", "clearing price"});
  for (std::size_t r = 0; r < serial.prices.size(); ++r) {
    prices.AddRow({"pool-" + std::to_string(r),
                   pm::FormatF(serial.prices[r], 4)});
  }
  std::cout << prices.Render();
  return identical ? 0 : 1;
}
