// planetmarket: core identifiers and the resource-pool registry.
//
// The paper (§II) models R resource pools, each an aggregation of physical
// resources distinguished by secondary characteristics. In the Google
// experiments a pool was a (cluster, resource-type) pair such as "CPU in
// cluster r7". PoolRegistry interns such pairs and hands out dense PoolId
// indices so that prices, demands, utilizations and capacities can all be
// stored as flat vectors indexed by PoolId.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace pm {

/// Dense index of a resource pool (cluster × resource kind). Valid ids are
/// consecutive integers [0, PoolRegistry::size()).
using PoolId = std::uint32_t;

/// Dense index of a market participant ("user" in the paper: an engineering
/// team, or the operator acting as a seller).
using UserId = std::uint32_t;

/// Sentinel for "no pool".
inline constexpr PoolId kInvalidPool = static_cast<PoolId>(-1);

/// Sentinel for "no user".
inline constexpr UserId kInvalidUser = static_cast<UserId>(-1);

/// Comparison tolerance for prices and quantities in auction arithmetic.
/// Settlement bookkeeping uses integer Money instead (see money.h).
inline constexpr double kPriceEps = 1e-9;

/// The resource dimensions traded in the experimental market (§V: "each
/// resource pool was taken as a cluster / resource type combination with the
/// latter including CPU, RAM, and disk").
enum class ResourceKind : std::uint8_t { kCpu = 0, kRam = 1, kDisk = 2 };

/// Number of distinct ResourceKind values.
inline constexpr int kNumResourceKinds = 3;

/// All resource kinds, in enum order; convenient for range-for loops.
inline constexpr ResourceKind kAllResourceKinds[kNumResourceKinds] = {
    ResourceKind::kCpu, ResourceKind::kRam, ResourceKind::kDisk};

/// Short human-readable name ("cpu", "ram", "disk").
std::string_view ToString(ResourceKind kind);

/// Parses "cpu" / "ram" / "disk" (case-sensitive). Returns nullopt on
/// unknown names.
std::optional<ResourceKind> ParseResourceKind(std::string_view name);

/// Natural unit of one quantum of each resource kind, used in reports
/// ("cores", "GB", "TB").
std::string_view UnitOf(ResourceKind kind);

/// A (cluster, resource kind) pair identifying one pool before interning.
struct PoolKey {
  std::string cluster;
  ResourceKind kind = ResourceKind::kCpu;

  bool operator==(const PoolKey& other) const = default;
};

/// Renders "cpu@cluster-name", the notation used by the TBBL-style bid
/// language and all reports.
std::string ToString(const PoolKey& key);

/// Interns (cluster, kind) pairs into dense PoolIds.
///
/// The registry is append-only: pools are never removed, so PoolIds stay
/// stable for the lifetime of a market. All per-pool state elsewhere in the
/// library (prices, supply, utilization, …) is a std::vector<double> of
/// length size() indexed by PoolId.
///
/// Clusters get dense indices too: the position of a cluster's name in
/// Clusters(), in first-interned order. Intern keeps a per-cluster table
/// of pool ids beside it, so hot paths (bid generation, routing) walk
/// cluster indices and read pool ids with PoolOf instead of hashing
/// (cluster, kind) keys.
class PoolRegistry {
 public:
  PoolRegistry() = default;

  /// Returns the id for `key`, interning it if new.
  PoolId Intern(const PoolKey& key);

  /// Convenience overload.
  PoolId Intern(std::string cluster, ResourceKind kind) {
    return Intern(PoolKey{std::move(cluster), kind});
  }

  /// Returns the id for `key` if present.
  std::optional<PoolId> Find(const PoolKey& key) const;

  /// Returns the key for an interned id. Precondition: id < size().
  const PoolKey& KeyOf(PoolId id) const;

  /// Renders "kind@cluster" for an interned id.
  std::string NameOf(PoolId id) const { return ToString(KeyOf(id)); }

  /// Number of interned pools (== R in the paper's notation).
  std::size_t size() const { return keys_.size(); }

  bool empty() const { return keys_.empty(); }

  /// All ids of a given resource kind, in interning order.
  std::vector<PoolId> PoolsOfKind(ResourceKind kind) const;

  /// Distinct cluster names, in first-interned order; a name's position
  /// is its cluster index.
  const std::vector<std::string>& Clusters() const { return clusters_; }

  /// Cluster index of `cluster`, if any of its pools is interned.
  std::optional<std::size_t> FindCluster(const std::string& cluster) const;

  /// Pool of `kind` in the cluster at index `cluster`, or kInvalidPool
  /// when that kind was never interned there (a TBBL leaf such as
  /// "cpu@x" interns one kind alone). Precondition:
  /// cluster < Clusters().size().
  PoolId PoolOf(std::size_t cluster, ResourceKind kind) const {
    return cluster_pools_[cluster][static_cast<std::size_t>(kind)];
  }

 private:
  std::vector<PoolKey> keys_;
  std::vector<std::string> clusters_;
  std::unordered_map<std::string, std::size_t> cluster_index_;
  std::vector<std::array<PoolId, kNumResourceKinds>> cluster_pools_;
};

}  // namespace pm
