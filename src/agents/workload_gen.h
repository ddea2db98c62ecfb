// planetmarket: synthetic world generation.
//
// Substitutes for Google's production fleet and engineering-team
// population (see DESIGN.md §2). The generator produces:
//
//  * a fleet of clusters with a wide utilization spread (the paper's
//    experiments ran against clusters ranging from nearly idle to
//    oversubscribed — the precondition for congestion-weighted reserves
//    to matter), with team-owned jobs actually bin-packed onto machines;
//  * a team population with heavy-tailed footprints and a strategy mix
//    matching the bidder behaviours of §V.B–C.
//
// Everything is driven by one seed; identical seeds give identical worlds.
#pragma once

#include <cstdint>
#include <vector>

#include "agents/team.h"
#include "cluster/fleet.h"

namespace pm::agents {

/// Per-machine capacity (a mid-2000s commodity server, scaled). Generated
/// clusters and scenario capacity expansions are built from it.
inline constexpr cluster::TaskShape kMachineShape{48.0, 192.0, 24.0};

/// The operator's real unit costs c(r): $/core, $/GB, $/TB per auction
/// period. These double as the pre-market fixed prices.
inline constexpr cluster::TaskShape kUnitCosts{10.0, 1.5, 0.8};

/// Knobs for GenerateWorld. Defaults approximate the paper's experimental
/// scale: ~34 clusters × 3 resource kinds ≈ 100 pools, ~100 teams.
struct WorkloadConfig {
  int num_clusters = 34;
  int min_machines_per_cluster = 40;
  int max_machines_per_cluster = 90;

  int num_teams = 100;

  /// Pre-auction utilization targets are spread uniformly over this range
  /// across clusters (then realized by actual job placement).
  double min_target_utilization = 0.10;
  double max_target_utilization = 0.96;

  /// Strategy mix (fractions of teams; remainder are truthful growers).
  double frac_premium_sticky = 0.15;
  double frac_opportunist_mover = 0.25;
  double frac_lowball_seller = 0.10;
  double frac_arbitrageur = 0.05;

  std::uint64_t seed = 42;
};

/// A generated world: the fleet plus its bidding teams.
struct World {
  cluster::Fleet fleet;
  std::vector<TeamAgent> agents;

  /// The fixed per-pool prices in force before the market (Figure 6's
  /// denominator): unit cost of each pool's resource kind.
  std::vector<double> fixed_prices;

  /// Per-cluster utilization targets used during generation (diagnostics).
  std::vector<double> target_utilization;
};

/// Builds a world. Deterministic in `config.seed`.
World GenerateWorld(const WorkloadConfig& config);

}  // namespace pm::agents
