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

/// One placed job with its machine assignment.
struct PlacedJob {
  Job job;
  PlacementResult placement;
};

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
  bool HasJob(JobId id) const { return slot_of_.count(id) > 0; }

  /// Jobs currently placed, in insertion order. RenumberJob keeps a job's
  /// slot; AddJob and RemoveJob invalidate references into the list.
  const std::vector<PlacedJob>& jobs() const { return jobs_; }

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

  /// Checkpoint restore: installs placed jobs (in the order jobs()
  /// listed them) without re-running the bin-packer or touching machine
  /// usage — the machines are restored separately via RestoreUsed, so the
  /// pair round-trips float accumulation bit-exactly. The cluster must
  /// hold no jobs yet, and each placement must be one AddJob could have
  /// made here: a non-negative count per machine summing to the job's
  /// tasks, none failed.
  void RestoreJobs(std::vector<PlacedJob> jobs);

 private:
  /// Re-sums used_ over machines_ in machine order — the order a fresh
  /// per-kind sum takes, so the cached total is bit-identical to one.
  /// Totals are never updated incrementally: x + a − a need not be x.
  void SumUsed();

  std::string name_;
  std::vector<Machine> machines_;
  TaskShape capacity_;  // Summed once: machine capacities never change.
  TaskShape used_;      // Re-summed after every placement change.
  std::vector<PlacedJob> jobs_;                     // Insertion order.
  std::unordered_map<JobId, std::size_t> slot_of_;  // Id -> index in jobs_.
};

}  // namespace pm::cluster
