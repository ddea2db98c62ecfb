// planetmarket: fleet rebalancing — migrating whole clusters between
// market shards.
//
// Arbitrage couples shard prices through demand; rebalancing couples them
// through supply. When one shard's utilization percentile has exceeded a
// configurable spread over another's for K consecutive epochs, the
// federation moves physical capacity where the demand is: the *coolest*
// cluster of the coolest shard (spare machines nobody is bidding up) is
// extracted from its market — jobs, machines, quota records and all — and
// adopted by the hottest shard, whose reserve prices relax as its free
// capacity grows. The §V story of teams migrating across clusters, applied
// one level up, to the clusters themselves.
//
// Determinism contract (docs/federation.md): migrations are planned only
// from epoch reports (identical across thread counts), shard ties break
// toward the lowest index, cluster ties break by a seeded FNV/SplitMix
// rank — so two runs with the same seeds migrate the same clusters at the
// same epochs, bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/fleet.h"
#include "federation/report.h"

namespace pm::federation {

/// Rebalancing policy knobs.
struct RebalanceConfig {
  bool enabled = false;

  /// Utilization-percentile gap (as a fraction, e.g. 0.30 = 30 points)
  /// between the hottest and coolest shard that counts as imbalance.
  double spread_threshold = 0.30;

  /// Consecutive epochs the gap must persist before capacity moves (K).
  int consecutive_epochs = 2;

  // ----------------------------------------------- §V.B move pricing --
  /// Reconfiguration cost per unit of *used* capacity travelling with a
  /// migrated cluster — the running jobs that must be re-homed across
  /// shard boundaries. All-zero (default) keeps migrations free: every
  /// candidate clears the gate.
  cluster::TaskShape move_cost_weights;
};

/// One planned cluster move (executed by FederatedExchange).
struct MigrationPlan {
  std::size_t from_shard = 0;  // Cool shard donating capacity.
  std::size_t to_shard = 0;    // Hot shard receiving it.
  std::string cluster;         // Cluster name within the donor fleet.
  double from_util = 0.0;      // Donor's percentile utilization.
  double to_util = 0.0;        // Receiver's percentile utilization.
  double move_cost = 0.0;      // Priced §V.B reconfiguration cost.
  double expected_benefit = 0.0;  // What the spread relief is worth.
};

/// Watches epoch reports and decides when capacity moves.
class FleetRebalancer {
 public:
  FleetRebalancer(RebalanceConfig config, std::size_t num_shards);

  /// Digests one epoch's post-auction utilizations. Returns the cluster
  /// moves to execute now: empty until the hot/cool spread has persisted
  /// for `consecutive_epochs` epochs, then at most one plan (and the
  /// streak resets).
  std::vector<MigrationPlan> Observe(
      const FederationReport& report,
      const std::vector<const cluster::Fleet*>& fleets);

  /// Epochs the current imbalance has persisted.
  int Streak() const { return streak_; }

  /// Deterministic tie-break rank for a cluster name (FNV-1a folded
  /// through SplitMix64 with a seed and the epoch). Exposed for the
  /// determinism tests.
  static std::uint64_t TieRank(std::uint64_t seed, int epoch,
                               const std::string& cluster);

 private:
  RebalanceConfig config_;
  std::size_t num_shards_;
  int streak_ = 0;
};

}  // namespace pm::federation
