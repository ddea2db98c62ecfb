// planetmarket: a cluster of machines hosting jobs.
//
// Clusters are the paper's location axis of the pool space: every cluster
// contributes one pool per resource kind ("CPUs in cluster 1"). A cluster
// owns its machines and its placed jobs, and reports the utilization
// metric ψ(r) that drives congestion-weighted reserve pricing (§IV).
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/scheduler.h"

namespace pm::cluster {

/// A named cluster: machines + job placements.
class Cluster {
 public:
  Cluster(std::string name, std::vector<Machine> machines);

  /// Builds a homogeneous cluster of `num_machines` identical machines.
  static Cluster Homogeneous(std::string name, int num_machines,
                             const TaskShape& machine_capacity);

  const std::string& name() const { return name_; }

  /// Relabels the cluster. Only safe while the cluster is detached from
  /// any Fleet (names key a fleet's pool registry); the federation's
  /// rebalancer uses it to qualify migrated clusters ("r03@region-1").
  void SetName(std::string name) { name_ = std::move(name); }
  const std::vector<Machine>& machines() const { return machines_; }
  std::size_t NumMachines() const { return machines_.size(); }

  /// Tries to place every task of `job`. Atomic: on failure nothing
  /// changes and false is returned.
  bool AddJob(const Job& job);

  /// Removes a job and frees its resources. Returns the job if present.
  std::optional<Job> RemoveJob(JobId id);

  /// Re-keys a placed job without touching its placement — the migration
  /// path uses it to move adopted jobs into the receiving market's job-id
  /// space (job ids are only unique per market). `to` must be free.
  void RenumberJob(JobId from, JobId to);

  /// Whether the given job currently runs here.
  bool HasJob(JobId id) const { return jobs_.count(id) > 0; }

  /// Jobs currently placed, in insertion order.
  std::vector<JobId> JobIds() const;

  const Job* FindJob(JobId id) const;

  /// Total capacity across machines for a resource kind.
  double Capacity(ResourceKind kind) const { return capacity_.Of(kind); }

  /// Total usage across machines for a resource kind.
  double Used(ResourceKind kind) const { return used_.Of(kind); }

  /// ψ for one dimension: Used/Capacity in [0, 1] (0 when no capacity).
  double Utilization(ResourceKind kind) const;

  /// Max utilization across dimensions — the binding constraint.
  double MaxUtilization() const;

  /// Headroom: capacity − used per dimension.
  double Free(ResourceKind kind) const {
    return Capacity(kind) - Used(kind);
  }

  /// One placed job with its machine assignment, for checkpointing.
  struct PlacedJobRecord {
    Job job;
    PlacementResult placement;
  };

  /// Every placed job with its placement, in insertion order.
  std::vector<PlacedJobRecord> ExportJobs() const;

  /// Checkpoint restore: installs job records (in the order ExportJobs
  /// returned them) without re-running the bin-packer or touching machine
  /// usage — the machines are restored separately via RestoreUsed, so the
  /// pair round-trips float accumulation bit-exactly. The cluster must
  /// hold no jobs yet.
  void RestoreJobs(std::vector<PlacedJobRecord> records);

 private:
  struct PlacedJob {
    Job job;
    PlacementResult placement;
    std::size_t order;  // Insertion order for deterministic iteration.
  };

  /// Re-sums used_ over machines_ in machine order — the order a fresh
  /// per-kind sum takes, so the cached total is bit-identical to one.
  /// Totals are never updated incrementally: x + a − a need not be x.
  void SumUsed();

  std::string name_;
  std::vector<Machine> machines_;
  TaskShape capacity_;  // Summed once: machine capacities never change.
  TaskShape used_;      // Re-summed after every placement change.
  std::unordered_map<JobId, PlacedJob> jobs_;
  std::size_t next_order_ = 0;
};

}  // namespace pm::cluster
