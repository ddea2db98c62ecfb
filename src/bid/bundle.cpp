#include "bid/bundle.h"

#include <algorithm>
#include <cmath>
#include <sstream>

// Header-only use of the demand engine's dot header: DotAscending is
// the one home of the ascending-pool multiply-add order every dot in the
// system shares (bundles here, the arena sweep in auction/demand_engine).
// No pm_auction symbols are referenced, so the bid library's link graph
// is unchanged.
#include "auction/kernels.h"
#include "common/check.h"

namespace pm::bid {

Bundle::Bundle(std::vector<BundleItem> items) : items_(std::move(items)) {
  for (const BundleItem& item : items_) {
    PM_CHECK_MSG(item.pool != kInvalidPool, "bundle item without a pool");
    PM_CHECK_MSG(std::isfinite(item.qty),
                 "non-finite quantity for pool " << item.pool);
  }
  std::sort(items_.begin(), items_.end(),
            [](const BundleItem& a, const BundleItem& b) {
              return a.pool < b.pool;
            });
  // Merge duplicates, drop zeros.
  std::vector<BundleItem> merged;
  merged.reserve(items_.size());
  for (const BundleItem& item : items_) {
    if (!merged.empty() && merged.back().pool == item.pool) {
      merged.back().qty += item.qty;
    } else {
      merged.push_back(item);
    }
  }
  merged.erase(std::remove_if(merged.begin(), merged.end(),
                              [](const BundleItem& item) {
                                return item.qty == 0.0;
                              }),
               merged.end());
  items_ = std::move(merged);
}

double Bundle::QuantityOf(PoolId pool) const {
  const auto it = std::lower_bound(
      items_.begin(), items_.end(), pool,
      [](const BundleItem& item, PoolId p) { return item.pool < p; });
  if (it != items_.end() && it->pool == pool) return it->qty;
  return 0.0;
}

double Bundle::Dot(std::span<const double> prices) const {
  return auction::DotAscending(
      items_.size(),
      [&](std::size_t e) {
        PM_CHECK_MSG(items_[e].pool < prices.size(),
                     "bundle references pool "
                         << items_[e].pool << " beyond price vector of size "
                         << prices.size());
        return items_[e].pool;
      },
      [&](std::size_t e) { return items_[e].qty; }, prices.data());
}

PoolId Bundle::MinVectorSize() const {
  if (items_.empty()) return 0;
  return items_.back().pool + 1;  // Items are sorted by pool.
}

Bundle operator+(const Bundle& a, const Bundle& b) {
  std::vector<BundleItem> items = a.items_;
  items.insert(items.end(), b.items_.begin(), b.items_.end());
  return Bundle(std::move(items));
}

Bundle operator-(const Bundle& a) {
  std::vector<BundleItem> items = a.items_;
  for (BundleItem& item : items) item.qty = -item.qty;
  return Bundle(std::move(items));
}

std::string Bundle::ToString(const PoolRegistry& registry) const {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) os << ", ";
    os << registry.NameOf(items_[i].pool) << ": " << items_[i].qty;
  }
  os << '}';
  return os.str();
}

void AccumulateInto(const Bundle& bundle, std::span<double> dense) {
  for (const BundleItem& item : bundle.items()) {
    PM_CHECK_MSG(item.pool < dense.size(),
                 "pool " << item.pool << " beyond dense vector of size "
                         << dense.size());
    dense[item.pool] += item.qty;
  }
}

}  // namespace pm::bid
