// planetmarket: cross-market bid routing (the federation's demand plane).
//
// A FederatedBid names a team, a resource requirement, and a payment
// limit — but no market. MarketRouter places it onto per-cluster market
// shards by policy, the thin federation layer of Tycoon-style auctioneer
// federations and the economic grid brokers of Buyya et al.: local markets
// clear independently; only bid *placement* crosses market boundaries.
//
// Placement is price- and capacity-aware. For each shard the router quotes
// the requirement against the shard's cheapest feasible cluster at current
// reserve prices, and derives a "heat" ratio (reserve-weighted cost over
// the pre-market fixed-price cost). When a preferred shard's heat crosses
// RouterConfig::spill_threshold the bid spills to a cooler shard — the
// paper's §V cross-cluster migration signal, applied before the auction
// instead of after it.
//
// Every routable bid lands whole on exactly one shard, as one part named
// "fed/<team>/<tag>" carrying the full quantity and limit. Everything here
// is deterministic: quotes iterate clusters in registry interning order
// and ties break toward the lowest shard index.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bid/bid.h"
#include "cluster/job.h"
#include "common/types.h"
#include "federation/health.h"

namespace pm::federation {

/// How a federated bid picks its one shard.
enum class RoutingPolicy {
  kHomeAffinity,   // The bid's home shard, spilling when it runs hot.
  kCheapestPrice,  // The shard quoting the lowest reserve-weighted cost.
};

std::string_view ToString(RoutingPolicy policy);

/// A shard-agnostic demand: what a planet-wide team asks the federation
/// for. The router turns it into concrete pool-indexed bids.
struct FederatedBid {
  std::string team;              // Billing identity, federation-wide.
  std::string tag = "bid";       // The routed part is named "fed/<team>/<tag>".
  cluster::TaskShape quantity;   // Requested units per kind (all >= 0).
  double limit = 0.0;            // Max total payment.
  std::string home_shard;        // kHomeAffinity's preference (by name).
  /// Telemetry trace ID stamped by FederatedExchange::SubmitFederatedBid
  /// when the telemetry plane is on (0 = untraced). Survives supervisor
  /// re-queues, so a rerouted bid keeps its original lifecycle trace.
  std::uint64_t trace = 0;
};

/// The router's read-only view of one shard, snapshotted by the exchange
/// before routing (prices move only at auction time, so a snapshot is
/// coherent for the whole routing pass).
struct ShardView {
  std::string name;
  const PoolRegistry* registry = nullptr;
  std::vector<double> reserve_prices;  // Current congestion-weighted p̃.
  std::vector<double> free_capacity;   // Operator-sellable units per pool.
  std::vector<double> fixed_prices;    // Pre-market baseline prices.
  /// Failure-domain status from the epoch supervisor. Quarantined shards
  /// quote viable == false (they run no auction this epoch, so routing a
  /// bid there would strand it); degraded and recovering shards shed load
  /// through RouterConfig::degraded_heat_penalty. Healthy (the default)
  /// changes nothing.
  ShardHealth health = ShardHealth::kHealthy;
};

/// One concrete bid the router placed on one shard.
struct RoutedBid {
  std::size_t shard = 0;
  std::string team;
  bid::Bid bid;
  /// Index of the originating FederatedBid in the routing input (and so
  /// into RoutingResult::decisions) — the join key the telemetry plane
  /// uses to map shard-level awards back to bid lifecycles.
  std::size_t bid_index = 0;
};

/// Routing audit record for one federated bid (index-aligned with the
/// input), consumed by the federation reporting plane.
struct RouteDecision {
  std::string team;
  std::string tag;
  RoutingPolicy policy = RoutingPolicy::kCheapestPrice;
  std::size_t preferred_shard = 0;    // Where policy pointed first.
  std::optional<std::size_t> shard;   // Where the part landed; empty when
                                      // the bid was unroutable.
  bool spilled = false;               // Re-routed off the preferred shard.
  double preferred_heat = 1.0;        // Reserve/fixed cost ratio there.
};

/// Router tuning.
struct RouterConfig {
  RoutingPolicy policy = RoutingPolicy::kCheapestPrice;

  /// Spill when the preferred shard quotes more than this multiple of the
  /// fixed-price cost for the requirement (reserve prices grow with
  /// congestion, so heat is a pure congestion signal).
  double spill_threshold = 3.0;

  // ---------------------------------------------- failure-domain gates --
  /// Heat multiplier applied to degraded and recovering shards: their
  /// quotes read as heat × (1 + degraded_heat_penalty), so routed load
  /// sheds toward healthy shards while the shaky one proves itself. 0
  /// (default) routes purely on price. Quarantined shards are excluded
  /// outright regardless of this knob.
  double degraded_heat_penalty = 0.0;
};

/// A per-shard quote for one requirement.
struct ShardQuote {
  bool viable = false;       // False: no cluster covers every requested
                             // kind; the other fields are meaningless and
                             // routing skips the shard.
  std::string cluster;       // Chosen cluster within the shard.
  double reserve_cost = 0.0; // Requirement · reserve prices there.
  double fixed_cost = 0.0;   // Requirement · fixed prices there.
  double heat = 1.0;         // reserve_cost / fixed_cost (1 when free).
  double fit = 0.0;          // Copies of the requirement the headroom holds.
};

/// Everything one routing pass produced.
struct RoutingResult {
  std::vector<RoutedBid> routed;
  std::vector<RouteDecision> decisions;  // Index-aligned with the inputs.
};

/// Routes federated bids onto shards against a fixed snapshot of views.
class MarketRouter {
 public:
  MarketRouter(RouterConfig config, std::vector<ShardView> views);

  std::size_t NumShards() const { return views_.size(); }
  const std::vector<ShardView>& views() const { return views_; }

  /// Quotes `quantity` on one shard: cheapest feasible cluster at reserve
  /// prices (falling back to the most-spacious cluster when nothing fits
  /// whole). A shard where no cluster covers every requested kind comes
  /// back with viable == false rather than failing. Deterministic:
  /// clusters are scanned in interning order with first-wins ties.
  ShardQuote Quote(std::size_t shard,
                   const cluster::TaskShape& quantity) const;

  /// Routes every bid onto one shard. Bids with no positive quantity, a
  /// non-positive limit, or no viable shard are recorded with an empty
  /// `shard` and produce no part.
  RoutingResult Route(const std::vector<FederatedBid>& bids) const;

 private:
  bid::Bid Materialize(const ShardQuote& quote, std::size_t shard,
                       const FederatedBid& fed) const;

  RouterConfig config_;
  std::vector<ShardView> views_;
};

}  // namespace pm::federation
