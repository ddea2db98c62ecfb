#include "cluster/fleet.h"

#include <algorithm>

#include "common/check.h"
#include "stats/descriptive.h"

namespace pm::cluster {
namespace {

/// Dense per-pool vector of `value(cluster, kind)` over the live
/// clusters; pools of extracted clusters read 0.
template <typename F>
std::vector<double> PerPool(const std::vector<Cluster>& clusters,
                            const PoolRegistry& registry, F value) {
  std::vector<double> v(registry.size(), 0.0);
  for (const Cluster& c : clusters) {
    const auto index = registry.FindCluster(c.name());
    PM_CHECK(index.has_value());
    for (ResourceKind kind : kAllResourceKinds) {
      v[registry.PoolOf(*index, kind)] = value(c, kind);
    }
  }
  return v;
}

}  // namespace

Fleet::Fleet(std::vector<Cluster> clusters, TaskShape unit_costs)
    : clusters_(std::move(clusters)), unit_costs_(unit_costs) {
  PM_CHECK_MSG(!clusters_.empty(), "fleet needs at least one cluster");
  PM_CHECK_MSG(unit_costs_.cpu > 0 && unit_costs_.ram_gb > 0 &&
                   unit_costs_.disk_tb > 0,
               "unit costs must be positive");
  // Intern pools cluster-major, kind-minor so PoolIds group by cluster.
  for (const Cluster& c : clusters_) {
    for (ResourceKind kind : kAllResourceKinds) {
      registry_.Intern(c.name(), kind);
    }
  }
  PM_CHECK_MSG(registry_.size() ==
                   clusters_.size() * kNumResourceKinds,
               "duplicate cluster names in fleet");
}

Fleet::Fleet(RestoreTag, std::vector<Cluster> clusters,
             TaskShape unit_costs)
    : clusters_(std::move(clusters)), unit_costs_(unit_costs) {}

Fleet Fleet::FromState(std::vector<Cluster> clusters,
                       const std::vector<PoolKey>& pool_order,
                       TaskShape unit_costs) {
  PM_CHECK_MSG(!clusters.empty(), "fleet needs at least one cluster");
  Fleet fleet(RestoreTag{}, std::move(clusters), unit_costs);
  for (std::size_t i = 0; i < pool_order.size(); ++i) {
    const PoolId id = fleet.registry_.Intern(pool_order[i]);
    PM_CHECK_MSG(id == i, "duplicate pool in saved interning order: "
                              << ToString(pool_order[i]));
  }
  // Every live cluster has all its pools, and no two share a name
  // (ClusterByName would only ever see the first).
  const PoolRegistry& registry = fleet.registry_;
  std::vector<bool> live(registry.Clusters().size(), false);
  for (const Cluster& c : fleet.clusters_) {
    const auto index = registry.FindCluster(c.name());
    for (ResourceKind kind : kAllResourceKinds) {
      PM_CHECK_MSG(index.has_value() &&
                       registry.PoolOf(*index, kind) != kInvalidPool,
                   "restored cluster '" << c.name()
                                        << "' missing from pool order");
    }
    PM_CHECK_MSG(!live[*index],
                 "duplicate restored cluster name '" << c.name() << "'");
    live[*index] = true;
  }
  return fleet;
}

std::vector<std::string> Fleet::ClusterNames() const {
  std::vector<std::string> names;
  names.reserve(clusters_.size());
  for (const Cluster& c : clusters_) names.push_back(c.name());
  return names;
}

std::size_t Fleet::IndexOf(const std::string& cluster) const {
  for (std::size_t i = 0; i < clusters_.size(); ++i) {
    if (clusters_[i].name() == cluster) return i;
  }
  PM_CHECK_MSG(false, "unknown cluster '" << cluster << "'");
  return 0;
}

Cluster& Fleet::ClusterByName(const std::string& name) {
  return clusters_[IndexOf(name)];
}

const Cluster& Fleet::ClusterByName(const std::string& name) const {
  return clusters_[IndexOf(name)];
}

bool Fleet::HasCluster(const std::string& name) const {
  return std::any_of(clusters_.begin(), clusters_.end(),
                     [&](const Cluster& c) { return c.name() == name; });
}

std::vector<double> Fleet::CapacityVector() const {
  return PerPool(clusters_, registry_,
                 [](const Cluster& c, ResourceKind kind) {
                   return c.Capacity(kind);
                 });
}

std::vector<double> Fleet::UsedVector() const {
  return PerPool(clusters_, registry_,
                 [](const Cluster& c, ResourceKind kind) {
                   return c.Used(kind);
                 });
}

std::vector<double> Fleet::FreeVector() const {
  std::vector<double> capacity = CapacityVector();
  const std::vector<double> used = UsedVector();
  for (std::size_t i = 0; i < capacity.size(); ++i) {
    capacity[i] = std::max(0.0, capacity[i] - used[i]);
  }
  return capacity;
}

std::vector<double> Fleet::UtilizationVector() const {
  return PerPool(clusters_, registry_,
                 [](const Cluster& c, ResourceKind kind) {
                   return c.Utilization(kind);
                 });
}

std::vector<double> Fleet::CostVector() const {
  std::vector<double> v(registry_.size(), 0.0);
  for (PoolId id = 0; id < registry_.size(); ++id) {
    v[id] = unit_costs_.Of(registry_.KeyOf(id).kind);
  }
  return v;
}

TaskShape Fleet::FreeShape(const std::string& cluster) const {
  const Cluster& c = ClusterByName(cluster);
  TaskShape shape;
  for (ResourceKind kind : kAllResourceKinds) {
    shape.Of(kind) = c.Free(kind);
  }
  return shape;
}

Cluster Fleet::ExtractCluster(const std::string& name) {
  PM_CHECK_MSG(clusters_.size() > 1,
               "cannot extract the fleet's last cluster");
  const std::size_t index = IndexOf(name);
  Cluster out = std::move(clusters_[index]);
  clusters_.erase(clusters_.begin() +
                  static_cast<std::ptrdiff_t>(index));
  return out;
}

void Fleet::AdoptCluster(Cluster cluster) {
  PM_CHECK_MSG(!HasCluster(cluster.name()),
               "fleet already has a live cluster named '"
                   << cluster.name() << "'");
  for (ResourceKind kind : kAllResourceKinds) {
    registry_.Intern(cluster.name(), kind);
  }
  clusters_.push_back(std::move(cluster));
}

bool Fleet::AddJob(const std::string& cluster, const Job& job) {
  return ClusterByName(cluster).AddJob(job);
}

std::optional<Job> Fleet::RemoveJob(JobId id) {
  for (Cluster& c : clusters_) {
    if (c.HasJob(id)) return c.RemoveJob(id);
  }
  return std::nullopt;
}

std::string Fleet::LocateJob(JobId id) const {
  for (const Cluster& c : clusters_) {
    if (c.HasJob(id)) return c.name();
  }
  return {};
}

std::vector<JobLocation> Fleet::AllJobs() const {
  std::vector<JobLocation> out;
  for (const Cluster& c : clusters_) {
    for (JobId id : c.JobIds()) {
      out.push_back(JobLocation{id, c.name()});
    }
  }
  return out;
}

double Fleet::FleetUtilization(ResourceKind kind) const {
  double used = 0.0, cap = 0.0;
  for (const Cluster& c : clusters_) {
    used += c.Used(kind);
    cap += c.Capacity(kind);
  }
  if (cap <= 0.0) return 0.0;
  return used / cap;
}

double Fleet::UtilizationPercentile(const std::string& cluster,
                                    ResourceKind kind) const {
  std::vector<double> utils;
  utils.reserve(clusters_.size());
  for (const Cluster& c : clusters_) utils.push_back(c.Utilization(kind));
  return stats::PercentileRank(utils, utils[IndexOf(cluster)]);
}

std::vector<double> Fleet::UtilizationPercentiles() const {
  std::vector<double> out(registry_.size(), kDeadPoolPercentile);
  std::vector<std::size_t> index(clusters_.size());
  for (std::size_t i = 0; i < clusters_.size(); ++i) {
    const auto found = registry_.FindCluster(clusters_[i].name());
    PM_CHECK(found.has_value());
    index[i] = *found;
  }
  std::vector<double> sorted(clusters_.size());
  for (ResourceKind kind : kAllResourceKinds) {
    for (std::size_t i = 0; i < clusters_.size(); ++i) {
      sorted[i] = clusters_[i].Utilization(kind);
    }
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < clusters_.size(); ++i) {
      // lower_bound and upper_bound count exactly what PercentileRank's
      // scan counts as below and tied, and the arithmetic is its own.
      const double value = clusters_[i].Utilization(kind);
      const auto low = std::lower_bound(sorted.begin(), sorted.end(), value);
      const auto high = std::upper_bound(low, sorted.end(), value);
      const double rank = static_cast<double>(low - sorted.begin()) +
                          0.5 * static_cast<double>(high - low);
      out[registry_.PoolOf(index[i], kind)] =
          100.0 * rank / static_cast<double>(sorted.size());
    }
  }
  return out;
}

}  // namespace pm::cluster
