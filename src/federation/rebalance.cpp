#include "federation/rebalance.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"
#include "net/serializer.h"
#include "stats/descriptive.h"

namespace pm::federation {
namespace {

/// Which percentile of each shard's per-pool utilization is compared
/// (0.9 ranks shards by their hot tail).
constexpr double kPercentile = 0.9;

/// Seed for deterministic tie-breaks among equally-cool clusters.
constexpr std::uint64_t kTieSeed = 0x9e3779b97f4a7c15ULL;

/// Dollar value the hot shard gains per unit of donated *free* capacity
/// per point of utilization spread. The gate: a candidate migrates only
/// when spread × free units × kBenefitPerFreeUnit ≥ its priced move cost.
constexpr double kBenefitPerFreeUnit = 1.0;

}  // namespace

FleetRebalancer::FleetRebalancer(RebalanceConfig config,
                                 std::size_t num_shards)
    : config_(std::move(config)), num_shards_(num_shards) {
  PM_CHECK_MSG(num_shards_ >= 2,
               "rebalancing needs at least two shards to move between");
  PM_CHECK_MSG(config_.spread_threshold > 0.0,
               "spread_threshold must be positive");
  PM_CHECK_MSG(config_.consecutive_epochs >= 1,
               "consecutive_epochs must be at least 1");
}

std::uint64_t FleetRebalancer::TieRank(std::uint64_t seed, int epoch,
                                       const std::string& cluster) {
  // net::Fnv1a over the name (implementation-defined std::hash would
  // break cross-platform determinism), folded through SplitMix64 with
  // the seed and epoch so tie orders differ between epochs but never
  // between runs.
  const std::uint64_t h = net::Fnv1a(
      reinterpret_cast<const std::uint8_t*>(cluster.data()),
      cluster.size());
  SplitMix64 mix(seed ^ h ^
                 (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(
                                              epoch + 1)));
  return mix.Next();
}

std::vector<MigrationPlan> FleetRebalancer::Observe(
    const FederationReport& report,
    const std::vector<const cluster::Fleet*>& fleets) {
  PM_CHECK(report.shards.size() == fleets.size());
  std::vector<MigrationPlan> plans;
  if (report.shards.size() < 2) return plans;

  // Rank shards by the kPercentile quantile of their per-pool
  // post-auction utilization. Pools of previously-extracted clusters
  // stay in the registry at zero capacity and zero utilization — they
  // must not count, or a donor shard would look ever cooler after each
  // donation and be drained to its one-cluster floor. Ties break toward
  // the lowest shard index.
  std::vector<double> utils(report.shards.size(), 0.0);
  for (std::size_t k = 0; k < report.shards.size(); ++k) {
    const std::vector<double>& post =
        report.shards[k].report.post_utilization;
    const std::vector<double> capacity = fleets[k]->CapacityVector();
    std::vector<double> live;
    live.reserve(post.size());
    const std::size_t limit = std::min(post.size(), capacity.size());
    for (std::size_t r = 0; r < limit; ++r) {
      if (capacity[r] > 0.0) live.push_back(post[r]);
    }
    utils[k] = live.empty() ? 0.0
                            : stats::Quantile(live, kPercentile);
  }
  std::size_t hot = 0, cool = 0;
  for (std::size_t k = 1; k < utils.size(); ++k) {
    if (utils[k] > utils[hot]) hot = k;
    if (utils[k] < utils[cool]) cool = k;
  }
  const double spread = utils[hot] - utils[cool];
  if (spread <= config_.spread_threshold || hot == cool) {
    streak_ = 0;
    return plans;
  }
  ++streak_;
  if (streak_ < config_.consecutive_epochs) return plans;

  // Donor: the coolest shard that can still donate (every fleet keeps at
  // least one cluster) AND is itself a full spread cooler than the
  // receiver — the absolute coolest may already be at its floor, and
  // falling back to a shard nearly as hot as the receiver would migrate
  // capacity between two hot shards and ping-pong. The streak is
  // consumed only when a migration actually happens, so persistent
  // imbalance is not re-counted from scratch after a fruitless trigger.
  std::size_t donor_shard = fleets.size();
  for (std::size_t k = 0; k < fleets.size(); ++k) {
    if (k == hot || fleets[k]->NumClusters() < 2) continue;
    if (utils[hot] - utils[k] <= config_.spread_threshold) continue;
    if (donor_shard == fleets.size() || utils[k] < utils[donor_shard]) {
      donor_shard = k;
    }
  }
  if (donor_shard == fleets.size()) return plans;  // Nobody can donate.
  cool = donor_shard;
  const cluster::Fleet& donor = *fleets[cool];
  struct Candidate {
    double utilization;
    std::uint64_t rank;
    std::string name;
  };
  std::vector<Candidate> candidates;
  for (const std::string& name : donor.ClusterNames()) {
    candidates.push_back(Candidate{
        donor.ClusterByName(name).MaxUtilization(),
        TieRank(kTieSeed, report.epoch, name), name});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.utilization != b.utilization) {
                return a.utilization < b.utilization;
              }
              if (a.rank != b.rank) return a.rank < b.rank;
              return a.name < b.name;
            });

  // §V.B pricing gate: a move costs move_cost_weights · used shape (the
  // jobs re-homed with the cluster) and is expected to deliver the
  // donor→receiver spread times the donated free units. Candidates whose
  // priced cost exceeds the expected benefit stay put — with the default
  // all-zero weights every candidate clears.
  // The first candidate that clears the gate is the epoch's one
  // migration (the donor keeps at least one cluster behind).
  const double move_spread = utils[hot] - utils[cool];
  for (const Candidate& candidate : candidates) {
    const cluster::Cluster& cl = donor.ClusterByName(candidate.name);
    cluster::TaskShape used;
    cluster::TaskShape free;
    for (ResourceKind kind : kAllResourceKinds) {
      used.Of(kind) = cl.Used(kind);
      free.Of(kind) = cl.Free(kind);
    }
    MigrationPlan plan;
    plan.from_shard = cool;
    plan.to_shard = hot;
    plan.cluster = candidate.name;
    plan.from_util = utils[cool];
    plan.to_util = utils[hot];
    plan.move_cost = cluster::Dot(used, config_.move_cost_weights);
    plan.expected_benefit = move_spread * cluster::TotalUnits(free) *
                            kBenefitPerFreeUnit;
    if (plan.expected_benefit < plan.move_cost) continue;  // Not worth it.
    plans.push_back(std::move(plan));
    break;
  }
  // The streak is consumed only by an executed migration; an epoch where
  // every candidate failed the donate/pricing gates keeps counting, so
  // persistent imbalance is not re-counted from scratch.
  if (!plans.empty()) streak_ = 0;
  return plans;
}

}  // namespace pm::federation
