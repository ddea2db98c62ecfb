// planetmarket: cross-shard arbitrage — the single-market kArbitrageur
// strategy lifted to the federation.
//
// §V.C's bidders showed "increasing sophistication towards arbitrage
// opportunities" inside one market; across a federation the same pressure
// is what couples prices between otherwise independent shards (Tycoon and
// the federated-cloud-marketplace literature both rely on it). The
// ArbitrageAgent is a planet-wide bidder funded by a treasury margin
// account: it reads the previous epoch's per-shard clearing prices from
// the federation report, buys capacity through SubmitExternalBid in the
// shard quoting a kind cheapest (warehousing it as real placed jobs, which
// raises that shard's utilization and therefore its congestion-weighted
// reserve), and resells warehoused holdings in shards whose prices have
// risen past its cost basis (releasing capacity, pulling prices back
// down). The visible effect — asserted by bench/arbitrage_spread.cpp — is
// the cross-shard clearing-price spread shrinking over epochs.
//
// Deterministic throughout: price signals are medians over fixed pool
// orders, shard/pool ties break toward the lowest index, and the agent
// draws nothing from any RNG.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/fleet.h"
#include "common/money.h"
#include "exchange/market.h"
#include "federation/report.h"
#include "federation/router.h"

namespace pm::federation {

/// Tuning for the federation arbitrageur.
struct ArbitrageConfig {
  bool enabled = false;

  /// Planet-wide working capital, minted into the treasury once at
  /// federation construction.
  Money margin = Money::FromDollars(100000);

  /// Minimum relative spread (max − min)/min between the priciest and the
  /// cheapest shard's clearing price of a kind before buying.
  double min_spread = 0.15;

  /// Minimum relative gain over cost basis before reselling a holding.
  double min_margin = 0.10;

  /// Fraction of the cheapest shard's free capacity bought per trade.
  double buy_fraction = 0.10;

  // ---------------------------------------------- outcome-aware gates --
  /// Warehouse accounting reads each award's PlacementOutcome: only
  /// physically placed units enter, at cost net of any unplaced-unit
  /// refund — the warehouse tracks exact physical backing instead of
  /// quota-layer promises. Off (default) keeps the quota-based
  /// accounting bit for bit.
  bool outcome_aware = false;
};

/// One bid the agent decided to place this epoch. (A sell bundle can mix
/// kinds; the bid's bundle items are the authoritative contents.)
struct ArbitragePlan {
  std::size_t shard = 0;
  bool is_buy = true;
  double qty = 0.0;
  Money funding;  // Allowance to push before the auction (zero on sells).
  bid::Bid bid;   // Ready for Market::SubmitExternalBid under team().
};

/// Cross-shard clearing-price dispersion of one epoch: per kind, the
/// relative spread (max − min)/min of the per-shard price signals,
/// averaged over kinds priced in at least two shards.
double ComputeClearingSpread(
    const FederationReport& report,
    const std::vector<const cluster::Fleet*>& fleets);

/// The planet-wide arbitrage bidder.
class ArbitrageAgent {
 public:
  explicit ArbitrageAgent(ArbitrageConfig config);

  /// Billing identity of the agent's bids ("fed/arbitrage/arb-…").
  std::string team() const;
  const ArbitrageConfig& config() const { return config_; }

  /// Decides this epoch's bids from the previous epoch's clearing prices
  /// (`prev` may be null on the first epoch — the agent sits out) and the
  /// current shard views/fleets. Plans are remembered so the next
  /// ObserveEpoch can map awards back to quantities.
  std::vector<ArbitragePlan> PlanEpoch(
      const FederationReport* prev, const std::vector<ShardView>& views,
      const std::vector<const cluster::Fleet*>& fleets, int epoch);

  /// Digests the epoch's outcome: settled buys enter the warehouse at
  /// their realized unit price, settled sells leave it and realize P&L.
  /// With ArbitrageConfig::outcome_aware the buy side reads each
  /// award's PlacementOutcome — only physically placed units enter, at
  /// cost net of refunds, so the warehouse is exact physical backing.
  /// Without it the warehouse is quota-backed: it matches the placed
  /// jobs except when a shard's bin-packing failed a won buy, in which
  /// case a later sell settles quota-only through the market's
  /// dead-cluster/no-job guards.
  void ObserveEpoch(const FederationReport& report);

  /// Re-homes warehouse entries when the fleet rebalancer migrates a
  /// cluster: holdings keyed to the donor's (shard, pool) move to the
  /// receiving shard's adopted pools (basis blended), because the
  /// physical jobs backing them travelled with the cluster. Without
  /// this, sells in the donor shard would collect payment for capacity
  /// that already left, and the migrated jobs could never be released.
  void OnClusterMigrated(
      std::size_t from_shard, std::size_t to_shard,
      const std::vector<std::pair<PoolId, PoolId>>& pool_map);

  /// Test seam: plants a warehouse entry directly. Production code only
  /// builds holdings through ObserveEpoch (settled awards); tests use
  /// this to pin OnClusterMigrated's re-homing behavior.
  void SeedHoldingsForTest(std::size_t shard, PoolId pool, double units,
                           double basis);

  /// Units warehoused in one shard (all pools).
  double HoldingsUnits(std::size_t shard) const;
  /// Units warehoused across the whole federation.
  double TotalHoldingsUnits() const;
  double RealizedPnl() const { return realized_pnl_; }

  /// Unrealized warehouse value over basis at the most recent epoch's
  /// price signal (updated by PlanEpoch; holdings of unpriced kinds are
  /// carried at basis, contributing zero).
  double MarkToMarket() const { return mark_to_market_; }

  /// The per-(shard, kind) price signal: median settled price over the
  /// shard's positive-capacity pools of that kind, NaN when the kind has
  /// no priced pool there. Exposed for the bench and tests.
  static double KindPrice(const exchange::AuctionReport& report,
                          const PoolRegistry& registry,
                          const std::vector<double>& capacity,
                          ResourceKind kind);

 private:
  struct Holding {
    double units = 0.0;
    double basis = 0.0;  // Average cost, dollars per unit.
  };

  ArbitrageConfig config_;
  std::vector<std::unordered_map<PoolId, Holding>> holdings_;  // Per shard.
  std::vector<ArbitragePlan> last_plans_;
  double realized_pnl_ = 0.0;
  double mark_to_market_ = 0.0;
};

}  // namespace pm::federation
