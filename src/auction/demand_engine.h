// planetmarket: the arena-compiled demand engine.
//
// The clock auction's inner loop — evaluate G_u(p) for every user, sum the
// chosen bundles into excess demand — is the hot path of the whole system
// (§III.C.4 predicts "at least one order of magnitude" from lower-level
// code). BidderProxy::Evaluate answers one query by chasing per-bundle
// std::vector<BundleItem> heap allocations; at planet scale that is a
// pointer-chase per bundle and an out-of-line Dot call per candidate.
//
// DemandEngine compiles a bid set ONCE into a contiguous CSR-style arena in
// structure-of-arrays layout:
//
//   bundle_begin_[u]   .. bundle_begin_[u+1]    bundles of bidder u
//   item_begin_[b]     .. item_begin_[b+1]      (pool, qty) items of bundle b
//   item_pool_[], item_qty_[]                   flat item component arrays
//   bundle_limit_[b]                            π_u (or vector-π entry π_k)
//
// and serves every demand query from it with cache-linear sweeps. On top of
// the arena sit two inverted indexes:
//
//   pool_bidder_begin_[r] .. [r+1]  → bidders with any bundle touching pool r
//   pool_entry_begin_[r]  .. [r+1]  → (bundle, qty) entries containing pool r
//
// which enable *incremental* re-evaluation: when a price update moves only
// pools P (a clock round, or a bisection probe that moves exactly the
// stepped pools), cached per-bundle dot products are updated by delta
// (cost_b += Δp_r · q_{b,r} over touched entries) and only bidders touching
// P re-run their argmin. Probe cost drops from O(Σ_u |Q_u|) to O(touched).
//
// Determinism contract (the auction tests assert serial == parallel ==
// distributed bit-for-bit):
//   - Bundle costs are accumulated item-by-item in ascending pool order,
//     exactly like bid::Bundle::Dot, so full-evaluation decisions and costs
//     are bit-identical to the BidderProxy oracle.
//   - Full-evaluation excess is accumulated per fixed-size bidder block
//     (kExcessBlockBidders, independent of thread count) and the block
//     partials are merged in block order, so the result does not depend on
//     the thread pool. With fewer than one block of bidders this is exactly
//     the user-order serial sum, i.e. bit-identical to the oracle.
//   - Incremental updates apply decision diffs in ascending bidder order
//     (UpdateExcess mirrors this for the distributed auctioneer), and delta
//     cost updates walk touched pools in ascending pool order, so a sharded
//     engine (pm::net proxy nodes) reproduces the whole-market engine's
//     cached costs bit-for-bit.
//
// Incrementally-updated costs and excess can drift from a fresh evaluation
// by floating-point rounding (re-associated sums), bounded far below
// kPriceEps; decisions are compared with kPriceEps tolerance, so auction
// outcomes are unaffected (asserted by the randomized equivalence tests).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "auction/kernels.h"
#include "auction/proxy.h"
#include "bid/bid.h"
#include "common/check.h"
#include "common/thread_pool.h"

namespace pm::auction {

/// Compiled demand oracle for a fixed bid set. Immutable after
/// construction; all mutable query state lives in a Workspace, so one
/// engine can serve concurrent query streams.
class DemandEngine {
 public:
  /// Fixed bidder-block size for deterministic parallel excess
  /// accumulation (see the determinism contract above).
  static constexpr std::size_t kExcessBlockBidders = 512;

  /// Hybrid policy: when a price move touches more than half the pools, a
  /// full arena sweep is cheaper than the incremental machinery (delta
  /// walk, dirty dedup, diff bookkeeping) and refreshes cached costs from
  /// scratch. The rule depends only on the touched-pool count, which is
  /// identical for the whole-market engine, every shard engine, and the
  /// distributed auctioneer — so all of them take the same branch and stay
  /// bit-for-bit in lockstep.
  static bool PrefersFullCollect(std::size_t touched_pools,
                                 std::size_t num_pools) {
    return touched_pools * 2 > num_pools;
  }

  /// Reusable per-query-stream state. Steady-state rounds perform zero
  /// allocations: every vector here is sized once on first use and reused.
  /// A workspace is bound to the engine that first uses it.
  class Workspace {
   public:
    Workspace() = default;

    /// Forgets cached state: the next CollectDemand is a full evaluation.
    void Reset() { valid_ = false; }

    /// True when decisions/excess reflect the last queried prices.
    bool valid() const { return valid_; }

    /// Decision per bidder (shard slot for sharded engines).
    const std::vector<ProxyDecision>& decisions() const {
      return decisions_;
    }

    /// Raw excess demand z = Σ_u x_u − s (empty when want_excess off).
    const std::vector<double>& excess() const { return excess_; }

    /// Skip excess accumulation entirely (distributed proxy nodes only
    /// report decisions; the auctioneer owns the excess). Must be set
    /// before the workspace's first CollectDemand — buffers are sized at
    /// bind time.
    void set_want_excess(bool want) {
      PM_CHECK_MSG(owner == nullptr,
                   "set_want_excess after the workspace is bound");
      want_excess_ = want;
    }

    /// Cumulative argmin evaluations served, full + incremental. The gap
    /// versus bidders × queries is the incremental win.
    long long proxies_evaluated() const { return proxies_evaluated_; }
    long long full_collections() const { return full_collections_; }
    long long incremental_collections() const {
      return incremental_collections_;
    }

    /// Logical work units for the profiler's deterministic channel:
    /// dot blocks swept by full collections (one per
    /// kExcessBlockBidders block — counted outside the parallel region,
    /// so thread-count independent) and bidders re-evaluated by
    /// incremental collections.
    long long dot_blocks() const { return dot_blocks_; }
    long long dirty_bidders() const { return dirty_bidders_; }

   private:
    friend class DemandEngine;

    const DemandEngine* owner = nullptr;
    std::vector<double> bundle_cost;     // Cached q_b·p per bundle.
    std::vector<ProxyDecision> decisions_;
    std::vector<double> excess_;
    std::vector<double> prices;          // Prices the cache reflects.
    std::vector<double> delta;           // Per-pool Δp scratch.
    std::vector<std::uint32_t> touched;  // Pools with Δp ≠ 0, ascending.
    std::vector<std::uint32_t> dirty;    // Bidders to re-evaluate.
    std::vector<std::uint8_t> dirty_flag;
    std::vector<std::int32_t> old_choice;  // Pre-update bundle index.
    std::vector<double> block_partial;   // blocks × R excess partials.
    bool valid_ = false;
    bool want_excess_ = true;
    long long proxies_evaluated_ = 0;
    long long full_collections_ = 0;
    long long incremental_collections_ = 0;
    long long dot_blocks_ = 0;
    long long dirty_bidders_ = 0;
  };

  /// Compiles the whole bid set. `supply` is the dense per-pool operator
  /// supply (excess = demand − supply); bids must already be validated.
  DemandEngine(std::span<const bid::Bid> bids, std::vector<double> supply);

  /// Compiles the shard bids[users[i]]; workspace decisions are indexed by
  /// shard slot i (the caller maps slots back to user ids). Used by the
  /// distributed proxy nodes.
  DemandEngine(std::span<const bid::Bid> bids,
               std::span<const std::uint32_t> users,
               std::vector<double> supply);

  /// Evaluates all demands at `prices` into `ws`. When the workspace holds
  /// a valid cache this is incremental: only bidders touching a moved pool
  /// are re-evaluated and excess is updated by decision diffs; otherwise a
  /// full arena sweep runs (fanned out over `pool` when provided). Either
  /// way the workspace afterwards holds decisions and (unless disabled)
  /// excess for exactly `prices`.
  void CollectDemand(std::span<const double> prices, ThreadPool* pool,
                     Workspace& ws) const;

  /// Deterministic blocked excess from an externally produced full
  /// decision vector (the distributed auctioneer aggregating proxy
  /// replies). Writes z = Σ chosen − supply into `excess` (size R).
  void ExcessFromDecisions(std::span<const ProxyDecision> decisions,
                           ThreadPool* pool,
                           std::span<double> excess) const;

  /// Incremental counterpart: applies the old→new decision diff to
  /// `excess` in ascending bidder order, touching only changed bidders.
  /// Matches the arithmetic of the engine's own incremental path exactly.
  void UpdateExcess(std::span<const ProxyDecision> old_decisions,
                    std::span<const ProxyDecision> new_decisions,
                    std::span<double> excess) const;

  std::size_t NumBidders() const { return bundle_begin_.size() - 1; }
  std::size_t NumPools() const { return supply_.size(); }
  std::size_t NumBundles() const { return item_begin_.size() - 1; }
  std::size_t NumItems() const { return item_pool_.size(); }
  const std::vector<double>& supply() const { return supply_; }

 private:
  void Compile(std::span<const bid::Bid> bids,
               std::span<const std::uint32_t> users);

  /// argmin over bidder u's bundles from cached costs; bit-identical
  /// comparisons to BidderProxy::Evaluate (lowest index wins ties within
  /// kPriceEps).
  ProxyDecision EvaluateFromCosts(std::uint32_t u,
                                  const double* bundle_cost) const;

  void FullCollect(std::span<const double> prices, ThreadPool* pool,
                   Workspace& ws) const;
  void IncrementalCollect(std::span<const double> prices, ThreadPool* pool,
                          Workspace& ws) const;

  /// Fixed-block deterministic excess accumulation (see the determinism
  /// contract above); `partial` is caller-provided scratch.
  void BlockedExcess(std::span<const ProxyDecision> decisions,
                     ThreadPool* pool, std::span<double> excess,
                     std::vector<double>& partial) const;

  /// Merges block partials in block order and subtracts supply.
  void MergePartials(std::size_t blocks, const std::vector<double>& partial,
                     std::span<double> excess) const;

  /// excess −= bidder u's bundle `from`; excess += bundle `to` (local
  /// indexes; kNothing allowed on either side).
  void ApplyBundleDiff(std::uint32_t u, std::int32_t from, std::int32_t to,
                       std::span<double> excess) const;

  std::vector<double> supply_;

  // CSR arena (structure-of-arrays).
  std::vector<std::uint32_t> bundle_begin_;  // size U+1.
  std::vector<std::uint32_t> item_begin_;    // size B+1.
  std::vector<PoolId> item_pool_;            // size NNZ, ascending per b.
  std::vector<double> item_qty_;             // size NNZ.
  std::vector<double> bundle_limit_;         // size B.
  std::vector<std::uint8_t> vector_pi_;      // size U.

  // Inverted indexes.
  std::vector<std::uint32_t> pool_bidder_begin_;  // size R+1.
  std::vector<std::uint32_t> pool_bidder_;        // deduped, ascending.
  std::vector<std::uint32_t> pool_entry_begin_;   // size R+1.
  std::vector<std::uint32_t> pool_entry_bundle_;  // ascending per pool.
  std::vector<double> pool_entry_qty_;
};

}  // namespace pm::auction
