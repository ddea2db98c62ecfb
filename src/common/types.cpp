#include "common/types.h"

#include "common/check.h"

namespace pm {

std::string_view ToString(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::kCpu:
      return "cpu";
    case ResourceKind::kRam:
      return "ram";
    case ResourceKind::kDisk:
      return "disk";
  }
  return "unknown";
}

std::optional<ResourceKind> ParseResourceKind(std::string_view name) {
  if (name == "cpu") return ResourceKind::kCpu;
  if (name == "ram") return ResourceKind::kRam;
  if (name == "disk") return ResourceKind::kDisk;
  return std::nullopt;
}

std::string_view UnitOf(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::kCpu:
      return "cores";
    case ResourceKind::kRam:
      return "GB";
    case ResourceKind::kDisk:
      return "TB";
  }
  return "units";
}

std::string ToString(const PoolKey& key) {
  std::string out(ToString(key.kind));
  out += '@';
  out += key.cluster;
  return out;
}

PoolId PoolRegistry::Intern(const PoolKey& key) {
  const auto kind = static_cast<std::size_t>(key.kind);
  PM_CHECK_MSG(kind < kNumResourceKinds, "unknown resource kind " << kind);
  auto [it, added] =
      cluster_index_.try_emplace(key.cluster, clusters_.size());
  if (added) {
    clusters_.push_back(key.cluster);
    cluster_pools_.emplace_back();
    cluster_pools_.back().fill(kInvalidPool);
  }
  PoolId& id = cluster_pools_[it->second][kind];
  if (id == kInvalidPool) {
    id = static_cast<PoolId>(keys_.size());
    keys_.push_back(key);
  }
  return id;
}

std::optional<PoolId> PoolRegistry::Find(const PoolKey& key) const {
  const auto cluster = FindCluster(key.cluster);
  if (!cluster.has_value()) return std::nullopt;
  const PoolId id = PoolOf(*cluster, key.kind);
  if (id == kInvalidPool) return std::nullopt;
  return id;
}

std::optional<std::size_t> PoolRegistry::FindCluster(
    const std::string& cluster) const {
  auto it = cluster_index_.find(cluster);
  if (it == cluster_index_.end()) return std::nullopt;
  return it->second;
}

const PoolKey& PoolRegistry::KeyOf(PoolId id) const {
  PM_CHECK_MSG(id < keys_.size(),
               "PoolId " << id << " out of range " << keys_.size());
  return keys_[id];
}

std::vector<PoolId> PoolRegistry::PoolsOfKind(ResourceKind kind) const {
  std::vector<PoolId> out;
  for (PoolId id = 0; id < keys_.size(); ++id) {
    if (keys_[id].kind == kind) out.push_back(id);
  }
  return out;
}

}  // namespace pm
