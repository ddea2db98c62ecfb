#include "common/rng.h"

#include <cmath>

namespace pm {
namespace {

constexpr std::uint64_t RotL(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Xoshiro256StarStar::Xoshiro256StarStar(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.Next();
}

std::uint64_t Xoshiro256StarStar::Next() {
  const std::uint64_t result = RotL(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = RotL(s_[3], 45);
  return result;
}

double RandomStream::NextDouble() {
  // 53 high bits → uniform double in [0, 1).
  return static_cast<double>(engine_.Next() >> 11) * 0x1.0p-53;
}

double RandomStream::Uniform(double lo, double hi) {
  PM_CHECK_MSG(lo <= hi, "Uniform requires lo <= hi, got " << lo << ", "
                                                           << hi);
  return lo + (hi - lo) * NextDouble();
}

std::int64_t RandomStream::UniformInt(std::int64_t lo, std::int64_t hi) {
  PM_CHECK_MSG(lo <= hi, "UniformInt requires lo <= hi, got " << lo << ", "
                                                              << hi);
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) {
    // Full 64-bit range.
    return static_cast<std::int64_t>(engine_.Next());
  }
  // Rejection sampling to avoid modulo bias; expected < 2 iterations.
  const std::uint64_t limit = (~0ULL / range) * range;
  std::uint64_t draw;
  do {
    draw = engine_.Next();
  } while (draw >= limit);
  return lo + static_cast<std::int64_t>(draw % range);
}

bool RandomStream::Bernoulli(double p) {
  if (p <= 0.0) {
    NextDouble();  // Keep draw count stable regardless of p.
    return false;
  }
  if (p >= 1.0) {
    NextDouble();
    return true;
  }
  return NextDouble() < p;
}

double RandomStream::Exponential(double lambda) {
  PM_CHECK_MSG(lambda > 0.0, "Exponential requires lambda > 0, got "
                                 << lambda);
  double u = NextDouble();
  if (u <= 0.0) u = 0x1.0p-53;
  return -std::log(u) / lambda;
}

double RandomStream::Pareto(double xm, double alpha) {
  PM_CHECK_MSG(xm > 0.0 && alpha > 0.0,
               "Pareto requires xm > 0 and alpha > 0, got xm=" << xm
                                                               << " alpha="
                                                               << alpha);
  double u = NextDouble();
  if (u <= 0.0) u = 0x1.0p-53;
  return xm / std::pow(u, 1.0 / alpha);
}

std::size_t RandomStream::PickWeighted(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    PM_CHECK_MSG(w >= 0.0, "negative weight " << w);
    total += w;
  }
  PM_CHECK_MSG(total > 0.0, "PickWeighted requires a positive total weight");
  const double target = NextDouble() * total;
  double cum = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    cum += weights[i];
    if (target < cum) return i;
  }
  return weights.size() - 1;  // Floating-point edge: land on the last bin.
}

}  // namespace pm
