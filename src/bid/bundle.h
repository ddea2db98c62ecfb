// planetmarket: resource bundles.
//
// A bundle is one R-component vector q from the paper's §II model: positive
// components are quantities demanded, negative components quantities
// offered. Bundles are stored sparsely — a team's bid touches a handful of
// (cluster, kind) pools out of potentially hundreds — which makes the
// proxies' argmin_q q·p scans (the clock auction's inner loop) O(nnz)
// instead of O(R).
#pragma once

#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"

namespace pm::bid {

/// One sparse component of a bundle.
struct BundleItem {
  PoolId pool = kInvalidPool;
  double qty = 0.0;  // > 0 demanded, < 0 offered.

  bool operator==(const BundleItem& other) const = default;
};

/// A sparse R-component resource vector in canonical form: items sorted by
/// pool id, pools unique, no zero quantities.
class Bundle {
 public:
  /// The empty bundle (the "nothing" outcome x_u = 0).
  Bundle() = default;

  /// Builds a canonical bundle from items in any order; duplicate pools are
  /// summed, zero results dropped.
  explicit Bundle(std::vector<BundleItem> items);

  Bundle(std::initializer_list<BundleItem> items)
      : Bundle(std::vector<BundleItem>(items)) {}

  /// Canonical sparse items, sorted by pool.
  const std::vector<BundleItem>& items() const { return items_; }

  bool Empty() const { return items_.empty(); }
  std::size_t Size() const { return items_.size(); }

  /// Quantity for `pool` (0 if absent).
  double QuantityOf(PoolId pool) const;

  /// Cost of the bundle at the given price vector: q·p. Every referenced
  /// pool must be < prices.size(). Negative cost means the bundle pays its
  /// holder (net sale).
  double Dot(std::span<const double> prices) const;

  /// Largest referenced pool id + 1 (0 for the empty bundle); callers use
  /// this to validate against the registry/price-vector size.
  PoolId MinVectorSize() const;

  /// Component-wise sum (used by the AND combinator of the bid language).
  friend Bundle operator+(const Bundle& a, const Bundle& b);

  /// Component-wise negation (used to turn "offer" statements into signed
  /// quantities).
  friend Bundle operator-(const Bundle& a);

  bool operator==(const Bundle& other) const = default;

  /// Renders "{cpu@c1: 20, ram@c1: 40}" using the registry's pool names.
  std::string ToString(const PoolRegistry& registry) const;

 private:
  std::vector<BundleItem> items_;
};

/// Accumulates Σ_u x_u (the excess-demand sum) into a dense vector.
/// `dense` must have size >= bundle.MinVectorSize().
void AccumulateInto(const Bundle& bundle, std::span<double> dense);

}  // namespace pm::bid
