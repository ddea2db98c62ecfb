// planetmarket: the planet-wide fleet.
//
// A Fleet aggregates clusters into the market's pool space: each
// (cluster, resource-kind) pair is interned as one PoolId, and all
// per-pool quantities the auction needs — capacity, usage, free supply,
// utilization ψ(r), unit cost c(r) — are exposed as dense vectors indexed
// by PoolId. The fleet also places and removes jobs, cluster by cluster,
// when a settled trade changes what a team runs (the settlement pipeline
// moves a job as a removal plus an add).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/types.h"

namespace pm::cluster {

/// Fleet-wide job handle: which cluster a job lives in.
struct JobLocation {
  JobId job = 0;
  std::string cluster;
};

/// What UtilizationPercentiles reads for a pool whose cluster left the
/// fleet: below every real rank, which lies in [0, 100].
inline constexpr double kDeadPoolPercentile = -1.0;

/// The set of clusters participating in the market.
class Fleet {
 public:
  /// `unit_costs` gives the operator's real cost c(r) per unit of each
  /// resource kind (e.g. $/core, $/GB, $/TB per auction period); the
  /// reserve pricer scales these by the congestion weighting.
  Fleet(std::vector<Cluster> clusters, TaskShape unit_costs);

  /// Checkpoint restore: rebuilds a fleet from restored clusters plus the
  /// saved pool-interning order. The order can differ from cluster-major
  /// after extractions and adoptions — PoolIds are append-only for the
  /// market's lifetime, so a round trip must re-intern them in the exact
  /// saved sequence. Every live cluster's pools must appear in
  /// `pool_order`.
  static Fleet FromState(std::vector<Cluster> clusters,
                         const std::vector<PoolKey>& pool_order,
                         TaskShape unit_costs);

  const PoolRegistry& registry() const { return registry_; }
  std::size_t NumPools() const { return registry_.size(); }

  std::vector<std::string> ClusterNames() const;
  std::size_t NumClusters() const { return clusters_.size(); }

  /// The live clusters, in fleet order (the order AllJobs walks).
  const std::vector<Cluster>& clusters() const { return clusters_; }

  Cluster& ClusterByName(const std::string& name);
  const Cluster& ClusterByName(const std::string& name) const;
  bool HasCluster(const std::string& name) const;

  /// The operator's per-unit resource costs c(r), as passed at build time.
  const TaskShape& unit_costs() const { return unit_costs_; }

  /// Dense per-pool capacity vector.
  std::vector<double> CapacityVector() const;

  /// Dense per-pool usage vector.
  std::vector<double> UsedVector() const;

  /// Dense per-pool free capacity (what the operator can sell).
  std::vector<double> FreeVector() const;

  /// Dense per-pool utilization ψ(r) in [0, 1].
  std::vector<double> UtilizationVector() const;

  /// Dense per-pool unit cost c(r).
  std::vector<double> CostVector() const;

  /// One cluster's free capacity (headroom) as a TaskShape.
  TaskShape FreeShape(const std::string& cluster) const;

  /// Detaches a whole cluster — machines, jobs and all — for migration to
  /// another fleet (the federation's rebalancing protocol). The cluster's
  /// pools stay interned (PoolIds are stable for the market's lifetime)
  /// but report zero capacity/usage until a cluster of the same name is
  /// re-adopted. The fleet must keep at least one cluster.
  Cluster ExtractCluster(const std::string& name);

  /// Attaches a migrated cluster, interning its pools (idempotent when a
  /// same-named cluster lived here before). The name must not collide
  /// with a live cluster.
  void AdoptCluster(Cluster cluster);

  /// Places a new job in a cluster. Returns false (and leaves the fleet
  /// unchanged) if it does not fit.
  bool AddJob(const std::string& cluster, const Job& job);

  /// Removes a job wherever it lives. Returns it, or nullopt if unknown.
  std::optional<Job> RemoveJob(JobId id);

  /// Cluster currently hosting a job (empty if none).
  std::string LocateJob(JobId id) const;

  /// All jobs with their locations, ordered by cluster then placement.
  std::vector<JobLocation> AllJobs() const;

  /// Total fleet-wide utilization of one resource kind.
  double FleetUtilization(ResourceKind kind) const;

  /// Percentile rank (0–100) of `cluster`'s utilization of `kind` among
  /// all clusters — the y-axis metric of Figure 7.
  double UtilizationPercentile(const std::string& cluster,
                               ResourceKind kind) const;

  /// UtilizationPercentile of every pool at once, as a dense per-pool
  /// vector: bit-identical to the per-cluster call for each live pool,
  /// kDeadPoolPercentile for pools of extracted clusters. One sort per
  /// kind instead of a scan per lookup.
  std::vector<double> UtilizationPercentiles() const;

 private:
  struct RestoreTag {};
  Fleet(RestoreTag, std::vector<Cluster> clusters, TaskShape unit_costs);

  std::size_t IndexOf(const std::string& cluster) const;

  std::vector<Cluster> clusters_;
  PoolRegistry registry_;
  TaskShape unit_costs_;
};

}  // namespace pm::cluster
