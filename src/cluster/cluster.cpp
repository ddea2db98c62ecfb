#include "cluster/cluster.h"

#include <algorithm>

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
  PM_CHECK_MSG(jobs_.count(job.id) == 0,
               "job " << job.id << " already in cluster " << name_);
  PlacementResult placement = PlaceTasks(machines_, job.shape, job.tasks);
  if (!placement.Complete()) {
    UndoPlacement(machines_, job.shape, placement);
    SumUsed();  // Place-then-undo need not restore usage bit-exactly.
    return false;
  }
  jobs_.emplace(job.id, PlacedJob{job, std::move(placement), next_order_++});
  SumUsed();
  return true;
}

std::optional<Job> Cluster::RemoveJob(JobId id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  UndoPlacement(machines_, it->second.job.shape, it->second.placement);
  Job job = std::move(it->second.job);
  jobs_.erase(it);
  SumUsed();
  return job;
}

void Cluster::RenumberJob(JobId from, JobId to) {
  if (from == to) return;
  auto it = jobs_.find(from);
  PM_CHECK_MSG(it != jobs_.end(),
               "cannot renumber unknown job " << from << " in " << name_);
  PM_CHECK_MSG(jobs_.count(to) == 0,
               "job id " << to << " already taken in " << name_);
  PlacedJob placed = std::move(it->second);
  jobs_.erase(it);
  placed.job.id = to;
  jobs_.emplace(to, std::move(placed));
}

std::vector<JobId> Cluster::JobIds() const {
  std::vector<const PlacedJob*> placed;
  placed.reserve(jobs_.size());
  for (const auto& [id, pj] : jobs_) placed.push_back(&pj);
  std::sort(placed.begin(), placed.end(),
            [](const PlacedJob* a, const PlacedJob* b) {
              return a->order < b->order;
            });
  std::vector<JobId> ids;
  ids.reserve(placed.size());
  for (const PlacedJob* pj : placed) ids.push_back(pj->job.id);
  return ids;
}

const Job* Cluster::FindJob(JobId id) const {
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : &it->second.job;
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

std::vector<Cluster::PlacedJobRecord> Cluster::ExportJobs() const {
  std::vector<const PlacedJob*> placed;
  placed.reserve(jobs_.size());
  for (const auto& [id, pj] : jobs_) placed.push_back(&pj);
  std::sort(placed.begin(), placed.end(),
            [](const PlacedJob* a, const PlacedJob* b) {
              return a->order < b->order;
            });
  std::vector<PlacedJobRecord> records;
  records.reserve(placed.size());
  for (const PlacedJob* pj : placed) {
    records.push_back(PlacedJobRecord{pj->job, pj->placement});
  }
  return records;
}

void Cluster::RestoreJobs(std::vector<PlacedJobRecord> records) {
  PM_CHECK_MSG(jobs_.empty(),
               "RestoreJobs into non-empty cluster " << name_);
  next_order_ = 0;
  for (PlacedJobRecord& record : records) {
    const JobId id = record.job.id;
    PM_CHECK_MSG(jobs_.count(id) == 0,
                 "duplicate job " << id << " in restore of " << name_);
    jobs_.emplace(id, PlacedJob{std::move(record.job),
                                std::move(record.placement), next_order_++});
  }
}

}  // namespace pm::cluster
