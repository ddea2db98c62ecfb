// planetmarket: deterministic pseudo-random number generation.
//
// Every stochastic component in the library (workload generation, bidder
// noise, simulation arrivals) draws from RandomStream so that experiments
// are reproducible bit-for-bit across platforms. We implement the
// generators and distributions ourselves rather than using <random>'s
// distributions, whose outputs are not specified identically across
// standard libraries.
//
// Engine: xoshiro256** (Blackman & Vigna), seeded through SplitMix64 as its
// authors recommend.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace pm {

/// SplitMix64: a tiny 64-bit generator used to expand a single seed into
/// xoshiro state. Also usable standalone for cheap hashing.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 64-bit PRNG with 256-bit state.
class Xoshiro256StarStar {
 public:
  /// Seeds deterministically via SplitMix64.
  explicit Xoshiro256StarStar(std::uint64_t seed);

  std::uint64_t Next();

  /// Raw 256-bit state, for checkpointing (exchange/snapshot.cpp).
  const std::array<std::uint64_t, 4>& state() const { return s_; }

  /// Restores a state previously read via state().
  void set_state(const std::array<std::uint64_t, 4>& s) { s_ = s; }

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// A seeded random stream with the distributions the library needs.
///
/// All methods consume a deterministic number of engine outputs for a given
/// argument set, so interleaving of draws is stable across code paths.
class RandomStream {
 public:
  explicit RandomStream(std::uint64_t seed) : engine_(seed) {}

  /// Uniform on [0, 1).
  double NextDouble();

  /// Uniform on [lo, hi). Requires lo <= hi.
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /// true with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Exponential with the given rate lambda > 0.
  double Exponential(double lambda);

  /// Pareto with scale xm > 0 and shape alpha > 0; heavy-tailed sizes
  /// (team footprints, job sizes) follow this in the synthetic workload.
  double Pareto(double xm, double alpha);

  /// Picks an index in [0, weights.size()) proportionally to weights.
  /// Requires at least one strictly positive weight.
  std::size_t PickWeighted(const std::vector<double>& weights);

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          UniformInt(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Raw engine access (for tests).
  std::uint64_t NextRaw() { return engine_.Next(); }

  /// Engine state for checkpointing; a stream restored with RestoreState
  /// continues the exact draw sequence of the saved one.
  std::array<std::uint64_t, 4> SaveState() const { return engine_.state(); }
  void RestoreState(const std::array<std::uint64_t, 4>& s) {
    engine_.set_state(s);
  }

 private:
  Xoshiro256StarStar engine_;
};

}  // namespace pm
