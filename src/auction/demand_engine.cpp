#include "auction/demand_engine.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "common/types.h"

namespace pm::auction {
namespace {

/// cost_out[b] = q_b·p for every bundle b in [b0, b1) of the CSR arena.
void DotBlock(const std::uint32_t* item_begin, const PoolId* item_pool,
              const double* item_qty, const double* price, std::uint32_t b0,
              std::uint32_t b1, double* cost_out) {
  for (std::uint32_t b = b0; b < b1; ++b) {
    const std::uint32_t e0 = item_begin[b];
    cost_out[b] = DotAscending(
        item_begin[b + 1] - e0,
        [&](std::size_t e) { return item_pool[e0 + e]; },
        [&](std::size_t e) { return item_qty[e0 + e]; }, price);
  }
}

}  // namespace

DemandEngine::DemandEngine(std::span<const bid::Bid> bids,
                           std::vector<double> supply)
    : supply_(std::move(supply)) {
  std::vector<std::uint32_t> all(bids.size());
  std::iota(all.begin(), all.end(), 0u);
  Compile(bids, all);
}

DemandEngine::DemandEngine(std::span<const bid::Bid> bids,
                           std::span<const std::uint32_t> users,
                           std::vector<double> supply)
    : supply_(std::move(supply)) {
  Compile(bids, users);
}

void DemandEngine::Compile(std::span<const bid::Bid> bids,
                           std::span<const std::uint32_t> users) {
  const std::size_t num_users = users.size();
  const std::size_t num_pools = supply_.size();

  bundle_begin_.assign(num_users + 1, 0);
  vector_pi_.assign(num_users, 0);
  for (std::size_t i = 0; i < num_users; ++i) {
    PM_CHECK_MSG(users[i] < bids.size(),
                 "shard references user " << users[i] << " beyond bid set");
    const bid::Bid& b = bids[users[i]];
    PM_CHECK_MSG(!b.bundles.empty(), "engine over bid without bundles");
    bundle_begin_[i + 1] =
        bundle_begin_[i] + static_cast<std::uint32_t>(b.bundles.size());
    vector_pi_[i] = b.HasVectorLimits() ? 1 : 0;
  }
  const std::uint32_t num_bundles = bundle_begin_[num_users];

  item_begin_.assign(num_bundles + 1, 0);
  bundle_limit_.assign(num_bundles, 0.0);
  // Bundle → owning bidder, needed only while building the inverted
  // pool→bidder index below.
  std::vector<std::uint32_t> bundle_bidder(num_bundles, 0);
  std::uint32_t b = 0;
  for (std::size_t i = 0; i < num_users; ++i) {
    const bid::Bid& bid = bids[users[i]];
    for (std::size_t k = 0; k < bid.bundles.size(); ++k, ++b) {
      item_begin_[b + 1] =
          item_begin_[b] +
          static_cast<std::uint32_t>(bid.bundles[k].Size());
      bundle_limit_[b] = bid.LimitFor(k);
      bundle_bidder[b] = static_cast<std::uint32_t>(i);
    }
  }
  const std::uint32_t num_items = item_begin_[num_bundles];

  item_pool_.assign(num_items, 0);
  item_qty_.assign(num_items, 0.0);
  b = 0;
  std::uint32_t e = 0;
  for (std::size_t i = 0; i < num_users; ++i) {
    for (const bid::Bundle& bundle : bids[users[i]].bundles) {
      // Canonical bundles are sorted by pool, so the arena inherits the
      // ascending-pool item order Bundle::Dot sums in.
      for (const bid::BundleItem& item : bundle.items()) {
        PM_CHECK_MSG(item.pool < num_pools,
                     "bundle references pool " << item.pool
                                               << " beyond supply of size "
                                               << num_pools);
        item_pool_[e] = item.pool;
        item_qty_[e] = item.qty;
        ++e;
      }
      ++b;
    }
  }

  // Inverted pool→(bundle, qty) entries via counting sort: iterating
  // bundles ascending keeps each pool's entry list sorted by bundle id.
  pool_entry_begin_.assign(num_pools + 1, 0);
  for (std::uint32_t it = 0; it < num_items; ++it) {
    ++pool_entry_begin_[item_pool_[it] + 1];
  }
  for (std::size_t r = 0; r < num_pools; ++r) {
    pool_entry_begin_[r + 1] += pool_entry_begin_[r];
  }
  pool_entry_bundle_.assign(num_items, 0);
  pool_entry_qty_.assign(num_items, 0.0);
  std::vector<std::uint32_t> cursor(pool_entry_begin_.begin(),
                                    pool_entry_begin_.end() - 1);
  for (std::uint32_t bb = 0; bb < num_bundles; ++bb) {
    for (std::uint32_t it = item_begin_[bb]; it < item_begin_[bb + 1];
         ++it) {
      const std::uint32_t slot = cursor[item_pool_[it]]++;
      pool_entry_bundle_[slot] = bb;
      pool_entry_qty_[slot] = item_qty_[it];
    }
  }

  // Inverted pool→bidder index, deduplicated. Entry lists are sorted by
  // bundle id, hence bidder ids arrive non-decreasing per pool and
  // adjacent-dedup suffices.
  pool_bidder_begin_.assign(num_pools + 1, 0);
  pool_bidder_.clear();
  pool_bidder_.reserve(num_items);
  for (std::size_t r = 0; r < num_pools; ++r) {
    std::uint32_t last = kInvalidUser;
    for (std::uint32_t k = pool_entry_begin_[r]; k < pool_entry_begin_[r + 1];
         ++k) {
      const std::uint32_t u = bundle_bidder[pool_entry_bundle_[k]];
      if (u != last) {
        pool_bidder_.push_back(u);
        last = u;
      }
    }
    pool_bidder_begin_[r + 1] =
        static_cast<std::uint32_t>(pool_bidder_.size());
  }
  pool_bidder_.shrink_to_fit();
}

ProxyDecision DemandEngine::EvaluateFromCosts(
    std::uint32_t u, const double* bundle_cost) const {
  const std::uint32_t b0 = bundle_begin_[u];
  const std::uint32_t b1 = bundle_begin_[u + 1];
  int best_index = ProxyDecision::kNothing;
  double best_cost = 0.0;
  if (vector_pi_[u]) {
    // Vector-π: cheapest among the individually affordable bundles.
    for (std::uint32_t b = b0; b < b1; ++b) {
      const double cost = bundle_cost[b];
      if (cost > bundle_limit_[b] + kPriceEps) continue;
      if (best_index == ProxyDecision::kNothing ||
          cost < best_cost - kPriceEps) {
        best_index = static_cast<int>(b - b0);
        best_cost = cost;
      }
    }
    if (best_index == ProxyDecision::kNothing) return ProxyDecision{};
    return ProxyDecision{best_index, best_cost};
  }
  // Scalar π: global argmin, then one affordability test on the winner.
  for (std::uint32_t b = b0; b < b1; ++b) {
    const double cost = bundle_cost[b];
    if (best_index == ProxyDecision::kNothing ||
        cost < best_cost - kPriceEps) {
      best_index = static_cast<int>(b - b0);
      best_cost = cost;
    }
  }
  if (best_cost <= bundle_limit_[b0] + kPriceEps) {
    return ProxyDecision{best_index, best_cost};
  }
  return ProxyDecision{};
}

void DemandEngine::CollectDemand(std::span<const double> prices,
                                 ThreadPool* pool, Workspace& ws) const {
  PM_CHECK_MSG(prices.size() == supply_.size(),
               "price vector of size " << prices.size() << " for "
                                       << supply_.size() << " pools");
  if (ws.owner == nullptr) {
    // Bind: size everything once so steady-state rounds never allocate.
    const std::size_t num_users = NumBidders();
    const std::size_t num_pools = NumPools();
    ws.owner = this;
    ws.bundle_cost.assign(NumBundles(), 0.0);
    ws.decisions_.assign(num_users, ProxyDecision{});
    ws.excess_.assign(ws.want_excess_ ? num_pools : 0, 0.0);
    ws.prices.assign(num_pools, 0.0);
    ws.delta.assign(num_pools, 0.0);
    ws.touched.reserve(num_pools);
    ws.dirty.reserve(num_users);
    ws.dirty_flag.assign(num_users, 0);
    ws.old_choice.assign(num_users, ProxyDecision::kNothing);
    const std::size_t blocks =
        (num_users + kExcessBlockBidders - 1) / kExcessBlockBidders;
    ws.block_partial.assign(ws.want_excess_ ? blocks * num_pools : 0, 0.0);
  }
  PM_CHECK_MSG(ws.owner == this, "workspace bound to another engine");
  if (!ws.valid_) {
    FullCollect(prices, pool, ws);
    return;
  }
  // Delta scan: which pools moved since the cached evaluation?
  const std::size_t num_pools = NumPools();
  ws.touched.clear();
  for (std::size_t r = 0; r < num_pools; ++r) {
    const double d = prices[r] - ws.prices[r];
    if (d != 0.0) {
      ws.delta[r] = d;
      ws.touched.push_back(static_cast<std::uint32_t>(r));
    }
  }
  if (ws.touched.empty()) {
    ++ws.incremental_collections_;  // Cache already reflects these prices.
    return;
  }
  if (PrefersFullCollect(ws.touched.size(), num_pools)) {
    FullCollect(prices, pool, ws);
  } else {
    IncrementalCollect(prices, pool, ws);
  }
}

void DemandEngine::FullCollect(std::span<const double> prices,
                               ThreadPool* pool, Workspace& ws) const {
  const std::size_t num_users = NumBidders();
  const std::size_t num_pools = NumPools();
  std::copy(prices.begin(), prices.end(), ws.prices.begin());
  const double* price = prices.data();
  double* cost_out = ws.bundle_cost.data();
  ProxyDecision* decisions = ws.decisions_.data();
  const bool want_excess = ws.want_excess_;
  // One fused pass per fixed-size bidder block: evaluate, then fold the
  // chosen bundle straight into the block's excess partial while its
  // items are hot. Blocks double as the ParallelFor dispatch unit, so the
  // type-erased callback is paid once per block, not per bidder — and the
  // partial layout is thread-count independent (determinism contract).
  const std::size_t blocks =
      (num_users + kExcessBlockBidders - 1) / kExcessBlockBidders;
  // Single-block markets (≤ kExcessBlockBidders bidders, or a serial
  // run's only block) accumulate straight into the excess vector — same
  // arithmetic, one less buffer pass.
  const bool single_block = blocks <= 1;
  double* direct_excess = nullptr;
  if (want_excess) {
    if (single_block) {
      std::fill(ws.excess_.begin(), ws.excess_.end(), 0.0);
      direct_excess = ws.excess_.data();
    } else {
      ws.block_partial.assign(blocks * num_pools, 0.0);
    }
  }
  double* partials = ws.block_partial.data();
  ParallelFor(pool, 0, blocks, [&, price, cost_out, decisions, partials,
                                direct_excess](std::size_t blk) {
    double* part = want_excess
                       ? (single_block ? direct_excess
                                       : partials + blk * num_pools)
                       : nullptr;
    const std::size_t u0 = blk * kExcessBlockBidders;
    const std::size_t u1 =
        std::min(num_users, (blk + 1) * kExcessBlockBidders);
    // All the block's bundle costs in one cache-resident burst (≤ a few
    // thousand doubles), then the argmin + excess fold re-reads them while
    // hot. Each cost accumulates in Bundle::Dot's exact ascending-pool
    // order (kernels.h), so costs — and therefore decisions — stay
    // bit-identical to the BidderProxy oracle.
    DotBlock(item_begin_.data(), item_pool_.data(), item_qty_.data(), price,
             bundle_begin_[u0], bundle_begin_[u1], cost_out);
    for (std::size_t u = u0; u < u1; ++u) {
      const ProxyDecision d =
          EvaluateFromCosts(static_cast<std::uint32_t>(u), cost_out);
      decisions[u] = d;
      if (want_excess && d.Active()) {
        const std::uint32_t b =
            bundle_begin_[u] + static_cast<std::uint32_t>(d.bundle_index);
        const std::uint32_t e1 = item_begin_[b + 1];
        for (std::uint32_t e = item_begin_[b]; e < e1; ++e) {
          part[item_pool_[e]] += item_qty_[e];
        }
      }
    }
  });
  ws.proxies_evaluated_ += static_cast<long long>(num_users);
  ++ws.full_collections_;
  ws.dot_blocks_ += static_cast<long long>(blocks);
  if (want_excess) {
    if (single_block) {
      for (std::size_t r = 0; r < num_pools; ++r) {
        ws.excess_[r] -= supply_[r];
      }
    } else {
      MergePartials(blocks, ws.block_partial, ws.excess_);
    }
  }
  ws.valid_ = true;
}

void DemandEngine::MergePartials(std::size_t blocks,
                                 const std::vector<double>& partial,
                                 std::span<double> excess) const {
  const std::size_t num_pools = NumPools();
  std::fill(excess.begin(), excess.end(), 0.0);
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    const double* part = partial.data() + blk * num_pools;
    for (std::size_t r = 0; r < num_pools; ++r) excess[r] += part[r];
  }
  for (std::size_t r = 0; r < num_pools; ++r) excess[r] -= supply_[r];
}

void DemandEngine::IncrementalCollect(std::span<const double> prices,
                                      ThreadPool* pool,
                                      Workspace& ws) const {
  ++ws.incremental_collections_;
  // Delta-update cached bundle costs: cost_b += Δp_r · q_{b,r} over the
  // touched pools' inverted entries, ascending pool order (every engine —
  // whole-market or shard — applies the same op sequence per bundle).
  double* cost = ws.bundle_cost.data();
  for (const std::uint32_t r : ws.touched) {
    // Oracle arithmetic shared with kernels.h — the one home of the
    // multiply-add order the drift-bound argument relies on.
    ScatterDeltaAscending(
        ws.delta[r], pool_entry_begin_[r], pool_entry_begin_[r + 1],
        [&](std::uint32_t k) { return pool_entry_bundle_[k]; },
        [&](std::uint32_t k) { return pool_entry_qty_[k]; }, cost);
  }

  // Only bidders with a bundle touching a moved pool can change their
  // argmin; collect them (deduped) and re-evaluate in ascending order.
  ws.dirty.clear();
  for (const std::uint32_t r : ws.touched) {
    const std::uint32_t k1 = pool_bidder_begin_[r + 1];
    for (std::uint32_t k = pool_bidder_begin_[r]; k < k1; ++k) {
      const std::uint32_t u = pool_bidder_[k];
      if (!ws.dirty_flag[u]) {
        ws.dirty_flag[u] = 1;
        ws.dirty.push_back(u);
      }
    }
  }
  // Per-pool bidder lists are ascending, so a single touched pool needs
  // no sort.
  if (ws.touched.size() > 1) std::sort(ws.dirty.begin(), ws.dirty.end());

  ProxyDecision* decisions = ws.decisions_.data();
  const std::uint32_t* dirty = ws.dirty.data();
  std::int32_t* old_choice = ws.old_choice.data();
  const std::size_t num_dirty = ws.dirty.size();
  constexpr std::size_t kChunk = 256;
  const std::size_t num_chunks = (num_dirty + kChunk - 1) / kChunk;
  ParallelFor(pool, 0, num_chunks, [&, decisions, dirty,
                                    old_choice](std::size_t c) {
    const std::size_t i1 = std::min(num_dirty, (c + 1) * kChunk);
    for (std::size_t i = c * kChunk; i < i1; ++i) {
      const std::uint32_t u = dirty[i];
      old_choice[i] = decisions[u].bundle_index;
      decisions[u] = EvaluateFromCosts(u, cost);
    }
  });
  ws.proxies_evaluated_ += static_cast<long long>(num_dirty);
  ws.dirty_bidders_ += static_cast<long long>(num_dirty);

  if (ws.want_excess_) {
    // Ascending bidder order, changed bidders only — the same sequence
    // UpdateExcess applies for the distributed auctioneer.
    for (std::size_t i = 0; i < ws.dirty.size(); ++i) {
      const std::uint32_t u = ws.dirty[i];
      if (old_choice[i] != decisions[u].bundle_index) {
        ApplyBundleDiff(u, old_choice[i], decisions[u].bundle_index,
                        ws.excess_);
      }
    }
  }
  for (const std::uint32_t u : ws.dirty) ws.dirty_flag[u] = 0;
  for (const std::uint32_t r : ws.touched) ws.prices[r] = prices[r];
}

void DemandEngine::BlockedExcess(std::span<const ProxyDecision> decisions,
                                 ThreadPool* pool, std::span<double> excess,
                                 std::vector<double>& partial) const {
  const std::size_t num_users = NumBidders();
  const std::size_t num_pools = NumPools();
  const std::size_t blocks =
      (num_users + kExcessBlockBidders - 1) / kExcessBlockBidders;
  partial.assign(blocks * num_pools, 0.0);
  double* partials = partial.data();
  ParallelFor(pool, 0, blocks, [&, partials](std::size_t blk) {
    double* part = partials + blk * num_pools;
    const std::size_t u1 =
        std::min(num_users, (blk + 1) * kExcessBlockBidders);
    for (std::size_t u = blk * kExcessBlockBidders; u < u1; ++u) {
      const ProxyDecision& d = decisions[u];
      if (!d.Active()) continue;
      const std::uint32_t b =
          bundle_begin_[u] + static_cast<std::uint32_t>(d.bundle_index);
      const std::uint32_t e1 = item_begin_[b + 1];
      for (std::uint32_t e = item_begin_[b]; e < e1; ++e) {
        part[item_pool_[e]] += item_qty_[e];
      }
    }
  });
  // Merge in block order: the result is independent of the thread count,
  // and with a single block it is exactly the user-order serial sum.
  MergePartials(blocks, partial, excess);
}

void DemandEngine::ExcessFromDecisions(
    std::span<const ProxyDecision> decisions, ThreadPool* pool,
    std::span<double> excess) const {
  PM_CHECK_MSG(decisions.size() == NumBidders(),
               "decision vector of size " << decisions.size() << " for "
                                          << NumBidders() << " bidders");
  PM_CHECK(excess.size() == NumPools());
  std::vector<double> partial;
  BlockedExcess(decisions, pool, excess, partial);
}

void DemandEngine::UpdateExcess(std::span<const ProxyDecision> old_decisions,
                                std::span<const ProxyDecision> new_decisions,
                                std::span<double> excess) const {
  PM_CHECK(old_decisions.size() == NumBidders());
  PM_CHECK(new_decisions.size() == NumBidders());
  PM_CHECK(excess.size() == NumPools());
  for (std::size_t u = 0; u < new_decisions.size(); ++u) {
    if (old_decisions[u].bundle_index != new_decisions[u].bundle_index) {
      ApplyBundleDiff(static_cast<std::uint32_t>(u),
                      old_decisions[u].bundle_index,
                      new_decisions[u].bundle_index, excess);
    }
  }
}

void DemandEngine::ApplyBundleDiff(std::uint32_t u, std::int32_t from,
                                   std::int32_t to,
                                   std::span<double> excess) const {
  if (from != ProxyDecision::kNothing) {
    const std::uint32_t b = bundle_begin_[u] + static_cast<std::uint32_t>(from);
    const std::uint32_t e1 = item_begin_[b + 1];
    for (std::uint32_t e = item_begin_[b]; e < e1; ++e) {
      excess[item_pool_[e]] -= item_qty_[e];
    }
  }
  if (to != ProxyDecision::kNothing) {
    const std::uint32_t b = bundle_begin_[u] + static_cast<std::uint32_t>(to);
    const std::uint32_t e1 = item_begin_[b + 1];
    for (std::uint32_t e = item_begin_[b]; e < e1; ++e) {
      excess[item_pool_[e]] += item_qty_[e];
    }
  }
}

}  // namespace pm::auction
