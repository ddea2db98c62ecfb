// planetmarket: the distributed clock auction (Figures 1 and 5).
//
// Runs Algorithm 1 with the auctioneer and bidder proxies as separate
// threads exchanging *serialized* protocol frames over channels. The loop
// itself is ClockAuction::Run, the only implementation of Algorithm 1;
// this file supplies its line 4 as an auction::DemandSource. Every demand
// collection (a clock round or a bisection probe) broadcasts
// PriceAnnounce, every proxy node decodes it, evaluates G_u for the users
// it hosts, and replies with an encoded DemandReply; the auctioneer
// assembles the decisions and derives excess demand.
//
// Every ClockAuctionConfig runs here and produces prices, decisions,
// rounds and trajectories bit-identical to ClockAuction::Run (asserted by
// the integration tests): distribution changes where the work runs, not
// the mechanism.
#pragma once

#include <cstddef>

#include "auction/clock_auction.h"
#include "net/faults.h"

namespace pm::net {

/// Configuration for the distributed run.
struct DistributedConfig {
  /// Proxy processes; users are sharded round-robin across them.
  std::size_t num_proxy_nodes = 4;

  /// Clock parameters, exactly as for ClockAuction::Run. A thread_pool
  /// only fans out the auctioneer's excess accumulation (block-ordered,
  /// so the sum does not depend on the thread count); the demand work
  /// runs on the proxy-node threads.
  auction::ClockAuctionConfig auction;

  /// Lossy-wire injection (off by default). When enabled, every directed
  /// link wraps its frames in sequence-numbered envelopes with bounded
  /// retry; the auction result stays bit-identical to the clean wire, or
  /// the run throws CheckFailure when a link exhausts its retries.
  FaultConfig faults;
};

/// Transport statistics from one distributed run.
struct TransportStats {
  long long messages_sent = 0;
  long long bytes_sent = 0;
  long long decode_failures = 0;  // Always 0 unless frames were corrupted.

  // Lossy-wire counters (all zero with faults off). Sender-side, so they
  // are deterministic for a given fault seed regardless of scheduling.
  long long frames_dropped = 0;
  long long frames_retried = 0;
  long long frames_duplicated = 0;
  long long frames_stale = 0;  // Stale copies redelivered by the delay line.
};

/// Result of the distributed auction: the standard result plus transport
/// counters.
struct DistributedResult {
  auction::ClockAuctionResult result;
  TransportStats transport;
};

/// Runs the auction distributed. The auction object provides bids, supply
/// and reserve prices exactly as for the serial engine. Any CheckFailure
/// (a bad config, a dead link, a protocol violation) is thrown after every
/// proxy-node thread has been joined. The engine-side counters of the
/// result (proxies_reevaluated, full/incremental_collections, dot_blocks,
/// dirty_bidders) stay zero: the engines live inside the proxy nodes.
DistributedResult RunDistributedAuction(const auction::ClockAuction& auction,
                                        const DistributedConfig& config);

}  // namespace pm::net
