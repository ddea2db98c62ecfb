// planetmarket: the demand engine's dot arithmetic.
//
// The clock auction's single hottest loop is the ascending-pool bundle
// dot product q·p that DemandEngine::FullCollect runs for every bundle of
// every bidder every full sweep. This header is that arithmetic's one
// home: Bundle::Dot (AoS), the full arena sweep (SoA) and the incremental
// delta-update path all inline these templates, so the bit-exactness
// contract — identical costs, decisions and prices on every path — lives
// in exactly one place.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pm::auction {

/// The oracle: one ascending-order sequential multiply-add chain.
/// `pool_at(e)` / `qty_at(e)` abstract AoS (Bundle::items()) versus SoA
/// (the arena) element access; the FP op sequence is identical either
/// way, which is the whole point.
template <typename PoolAt, typename QtyAt>
inline double DotAscending(std::size_t n, PoolAt pool_at, QtyAt qty_at,
                           const double* price) {
  double cost = 0.0;
  for (std::size_t e = 0; e < n; ++e) {
    cost += qty_at(e) * price[pool_at(e)];
  }
  return cost;
}

/// The oracle's incremental counterpart: cost[bundle_at(k)] += d ·
/// qty_at(k) over one touched pool's inverted entries [k0, k1), ascending
/// bundle order. DemandEngine::IncrementalCollect is the only caller, but
/// the arithmetic lives here beside DotAscending so the "cached cost ==
/// refreshed cost up to bounded drift" argument reads off one file.
template <typename BundleAt, typename QtyAt>
inline void ScatterDeltaAscending(double d, std::uint32_t k0,
                                  std::uint32_t k1, BundleAt bundle_at,
                                  QtyAt qty_at, double* cost) {
  for (std::uint32_t k = k0; k < k1; ++k) {
    cost[bundle_at(k)] += d * qty_at(k);
  }
}

}  // namespace pm::auction
