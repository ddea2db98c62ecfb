#include "cluster/cluster.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"

namespace pm::cluster {

Cluster::Cluster(std::string name, std::vector<Machine> machines)
    : name_(std::move(name)), machines_(std::move(machines)) {
  PM_CHECK_MSG(!name_.empty(), "cluster needs a name");
  for (const Machine& m : machines_) capacity_ += m.capacity();
  SumUsed();
}

void Cluster::SumUsed() {
  used_ = TaskShape{};
  for (const Machine& m : machines_) used_ += m.used();
}

Cluster Cluster::Homogeneous(std::string name, int num_machines,
                             const TaskShape& machine_capacity) {
  PM_CHECK_MSG(num_machines > 0, "cluster needs at least one machine");
  std::vector<Machine> machines;
  machines.reserve(static_cast<std::size_t>(num_machines));
  for (int i = 0; i < num_machines; ++i) {
    machines.emplace_back(machine_capacity);
  }
  return Cluster(std::move(name), std::move(machines));
}

bool Cluster::AddJob(const Job& job) {
  PM_CHECK_MSG(!HasJob(job.id),
               "job " << job.id << " already in cluster " << name_);
  PlacementResult placement = PlaceTasks(machines_, job.shape, job.tasks);
  if (!placement.Complete()) {
    UndoPlacement(machines_, job.shape, placement);
    SumUsed();  // Place-then-undo need not restore usage bit-exactly.
    return false;
  }
  slot_of_.emplace(job.id, jobs_.size());
  jobs_.push_back(PlacedJob{job, std::move(placement)});
  SumUsed();
  return true;
}

std::optional<Job> Cluster::RemoveJob(JobId id) {
  const auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return std::nullopt;
  const std::size_t slot = it->second;
  PlacedJob& placed = jobs_[slot];
  UndoPlacement(machines_, placed.job.shape, placed.placement);
  Job job = std::move(placed.job);
  slot_of_.erase(it);
  jobs_.erase(jobs_.begin() + static_cast<std::ptrdiff_t>(slot));
  for (std::size_t i = slot; i < jobs_.size(); ++i) {
    slot_of_[jobs_[i].job.id] = i;  // The tail moved up one slot.
  }
  SumUsed();
  return job;
}

void Cluster::RenumberJob(JobId from, JobId to) {
  if (from == to) return;
  const auto it = slot_of_.find(from);
  PM_CHECK_MSG(it != slot_of_.end(),
               "cannot renumber unknown job " << from << " in " << name_);
  PM_CHECK_MSG(!HasJob(to), "job id " << to << " already taken in " << name_);
  const std::size_t slot = it->second;
  slot_of_.erase(it);
  slot_of_.emplace(to, slot);
  jobs_[slot].job.id = to;
}

const Job* Cluster::FindJob(JobId id) const {
  const auto it = slot_of_.find(id);
  return it == slot_of_.end() ? nullptr : &jobs_[it->second].job;
}

double Cluster::Utilization(ResourceKind kind) const {
  const double cap = Capacity(kind);
  if (cap <= 0.0) return 0.0;
  return Used(kind) / cap;
}

double Cluster::MaxUtilization() const {
  double u = 0.0;
  for (ResourceKind kind : kAllResourceKinds) {
    u = std::max(u, Utilization(kind));
  }
  return u;
}

void Cluster::RestoreJobs(std::vector<PlacedJob> jobs) {
  PM_CHECK_MSG(jobs_.empty(),
               "RestoreJobs into non-empty cluster " << name_);
  std::unordered_map<JobId, std::size_t> slot_of;
  slot_of.reserve(jobs.size());
  for (std::size_t slot = 0; slot < jobs.size(); ++slot) {
    const Job& job = jobs[slot].job;
    const PlacementResult& placement = jobs[slot].placement;
    PM_CHECK_MSG(placement.tasks_placed.size() == machines_.size() &&
                     placement.tasks_failed == 0,
                 "job " << job.id << " in restore of " << name_
                        << " has a placement over "
                        << placement.tasks_placed.size() << " machines with "
                        << placement.tasks_failed << " tasks failed");
    std::int64_t placed = 0;
    int fewest = 0;
    for (const int count : placement.tasks_placed) {
      placed += count;
      fewest = std::min(fewest, count);
    }
    PM_CHECK_MSG(fewest >= 0, "job " << job.id << " in restore of " << name_
                                     << " places " << fewest
                                     << " tasks on a machine");
    PM_CHECK_MSG(placed == job.tasks,
                 "job " << job.id << " in restore of " << name_ << " places "
                        << placed << " of its " << job.tasks << " tasks");
    PM_CHECK_MSG(slot_of.emplace(job.id, slot).second,
                 "duplicate job " << job.id << " in restore of " << name_);
  }
  jobs_ = std::move(jobs);
  slot_of_ = std::move(slot_of);
}

}  // namespace pm::cluster
