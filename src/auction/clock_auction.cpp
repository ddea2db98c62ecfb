#include "auction/clock_auction.h"

#include <algorithm>

#include "common/check.h"
#include "common/types.h"

namespace pm::auction {

namespace {

/// Intra-round bisection iterations (each costs one demand collection).
constexpr int kBisectionIters = 24;

bool AllNonPositive(std::span<const double> z, double eps) {
  return std::all_of(z.begin(), z.end(),
                     [eps](double v) { return v <= eps; });
}

/// The in-process source: one DemandEngine workspace serving every
/// collection — a full arena sweep on the first call, incremental
/// re-evaluation (only bidders touching a moved pool) on every later
/// round and probe. The loop reads decisions and excess straight out of
/// the workspace.
class EngineSource final : public DemandSource {
 public:
  EngineSource(const DemandEngine& engine, ThreadPool* pool)
      : engine_(engine), pool_(pool) {}

  void Collect(std::span<const double> prices) override {
    engine_.CollectDemand(prices, pool_, ws_);
  }
  const std::vector<ProxyDecision>& decisions() const override {
    return ws_.decisions();
  }
  const std::vector<double>& excess() const override { return ws_.excess(); }

  const DemandEngine::Workspace& workspace() const { return ws_; }

 private:
  const DemandEngine& engine_;
  ThreadPool* pool_;
  DemandEngine::Workspace ws_;
};

}  // namespace

IncrementRule::IncrementRule(const ClockAuctionConfig& config,
                             std::size_t num_pools)
    : kind_(config.policy_kind),
      alpha_(config.alpha),
      delta_(config.delta),
      floor_(config.step_floor) {
  using Kind = ClockAuctionConfig::PolicyKind;
  switch (kind_) {
    case Kind::kAdditive:
      PM_CHECK_MSG(alpha_ > 0.0, "alpha must be positive");
      return;
    case Kind::kCapped:
      PM_CHECK_MSG(alpha_ > 0.0 && delta_ > 0.0,
                   "alpha and delta must be positive");
      return;
    case Kind::kRelativeCapped:
    case Kind::kMultiplicative:
      PM_CHECK_MSG(alpha_ > 0.0 && delta_ > 0.0 && floor_ > 0.0,
                   "alpha, delta and floor must be positive");
      return;
    case Kind::kCostNormalized: {
      PM_CHECK_MSG(config.base_costs.size() == num_pools,
                   "base_costs must have one entry per pool");
      PM_CHECK_MSG(alpha_ > 0.0 && delta_ > 0.0,
                   "alpha and delta must be positive");
      PM_CHECK_MSG(!config.base_costs.empty(),
                   "base costs must be provided");
      weights_ = config.base_costs;
      double mean = 0.0;
      for (double c : weights_) {
        PM_CHECK_MSG(c > 0.0, "base costs must be positive");
        mean += c;
      }
      mean /= static_cast<double>(weights_.size());
      for (double& c : weights_) c /= mean;
      return;
    }
  }
  PM_CHECK_MSG(false, "unknown policy kind");
}

void IncrementRule::ComputeStep(std::span<const double> excess,
                                std::span<const double> prices,
                                std::span<double> step) const {
  using Kind = ClockAuctionConfig::PolicyKind;
  if (kind_ == Kind::kCostNormalized) {
    PM_CHECK_MSG(excess.size() == weights_.size(),
                 "cost-normalized rule built for " << weights_.size()
                                                   << " pools, called with "
                                                   << excess.size());
  }
  for (std::size_t r = 0; r < excess.size(); ++r) {
    if (excess[r] <= 0.0) {
      step[r] = 0.0;
      continue;
    }
    const double proportional = alpha_ * excess[r];
    switch (kind_) {
      case Kind::kAdditive:
        step[r] = proportional;
        break;
      case Kind::kCapped:
        step[r] = std::min(proportional, delta_);
        break;
      case Kind::kRelativeCapped:
        step[r] =
            std::min(proportional, std::max(delta_ * prices[r], floor_));
        break;
      case Kind::kCostNormalized:
        step[r] = weights_[r] * std::min(proportional, delta_);
        break;
      case Kind::kMultiplicative:
        step[r] =
            std::max(prices[r], floor_) * std::min(proportional, delta_);
        break;
    }
  }
}

DemandEngine ClockAuction::BuildEngine(const std::vector<bid::Bid>& bids,
                                       const std::vector<double>& supply,
                                       const std::vector<double>& reserve) {
  PM_CHECK_MSG(supply.size() == reserve.size(),
               "supply and reserve vectors must have equal size, got "
                   << supply.size() << " vs " << reserve.size());
  for (std::size_t r = 0; r < supply.size(); ++r) {
    PM_CHECK_MSG(supply[r] >= 0.0, "negative supply in pool " << r);
    PM_CHECK_MSG(reserve[r] >= 0.0,
                 "negative reserve price in pool " << r);
  }
  const std::string problem = bid::ValidateBids(bids, supply.size());
  PM_CHECK_MSG(problem.empty(), "invalid bid set: " << problem);
  return DemandEngine(bids, supply);
}

ClockAuction::ClockAuction(std::vector<bid::Bid> bids,
                           std::vector<double> supply,
                           std::vector<double> reserve_prices,
                           DemandEngineConfig)
    : bids_(std::move(bids)),
      supply_(std::move(supply)),
      reserve_(std::move(reserve_prices)),
      engine_(BuildEngine(bids_, supply_, reserve_)) {}

ClockAuctionResult ClockAuction::Run(
    const ClockAuctionConfig& config) const {
  EngineSource source(engine_, config.thread_pool);
  ClockAuctionResult result = Run(config, source);
  const DemandEngine::Workspace& ws = source.workspace();
  result.proxies_reevaluated = ws.proxies_evaluated();
  result.full_collections = ws.full_collections();
  result.incremental_collections = ws.incremental_collections();
  result.dot_blocks = ws.dot_blocks();
  result.dirty_bidders = ws.dirty_bidders();
  return result;
}

ClockAuctionResult ClockAuction::Run(const ClockAuctionConfig& config,
                                     DemandSource& source) const {
  const std::size_t num_pools = supply_.size();
  const IncrementRule increment(config, num_pools);

  const bool has_caps = !config.price_caps.empty();
  if (has_caps) {
    PM_CHECK_MSG(config.price_caps.size() == num_pools,
                 "price_caps must have one entry per pool");
    for (std::size_t r = 0; r < num_pools; ++r) {
      PM_CHECK_MSG(config.price_caps[r] >= reserve_[r],
                   "price cap for pool " << r
                                         << " is below its reserve price");
    }
  }

  ClockAuctionResult result;
  result.prices = reserve_;
  std::vector<double> normalized(num_pools, 0.0);
  std::vector<double> step(num_pools, 0.0);

  // Wall channel (profiler): the run splits into a collect phase (price
  // discovery, including each round's λ = 1 demand peek) and a bisect
  // phase (the final undersell search). Timing never feeds back into
  // the mechanism.
  const bool timed = config.collect_phase_timings;
  const std::uint64_t run_begin_ns = timed ? PhaseNowNs() : 0;
  std::uint64_t bisect_begin_ns = 0;

  auto collect = [&](std::span<const double> prices) {
    source.Collect(prices);
    result.demand_evaluations += static_cast<long long>(bids_.size());
  };
  auto finalize = [&] {
    result.decisions = source.decisions();
    result.excess = source.excess();
    if (timed) {
      const std::uint64_t end_ns = PhaseNowNs();
      const std::uint64_t split =
          bisect_begin_ns != 0 ? bisect_begin_ns : end_ns;
      result.phases.push_back(PhaseSpan{"collect", run_begin_ns, split});
      if (bisect_begin_ns != 0) {
        result.phases.push_back(
            PhaseSpan{"bisect", bisect_begin_ns, end_ns});
      }
    }
  };

  auto normalize = [&](std::span<const double> raw) {
    for (std::size_t r = 0; r < num_pools; ++r) {
      normalized[r] = raw[r] / std::max(supply_[r], 1.0);
    }
  };

  std::vector<double> probe_prices(num_pools);
  for (int round = 0; round < config.max_rounds; ++round) {
    collect(result.prices);
    result.rounds = round + 1;
    normalize(source.excess());
    if (config.record_trajectory) {
      result.trajectory.push_back(RoundRecord{result.prices, source.excess()});
    }
    if (AllNonPositive(normalized, config.demand_eps)) {
      result.converged = true;
      finalize();
      return result;
    }
    increment.ComputeStep(normalized, result.prices, step);
    // A positive-excess pool must receive a strictly positive step or the
    // auction can stall forever at constant prices.
    for (std::size_t r = 0; r < num_pools; ++r) {
      if (normalized[r] > config.demand_eps && step[r] <= 0.0) {
        step[r] = config.step_floor;
      }
    }
    if (has_caps) {
      // Clamp steps to the ceilings; if every pool with excess demand is
      // already pinned, no further price motion can clear the market.
      bool any_movable = false;
      for (std::size_t r = 0; r < num_pools; ++r) {
        const double headroom =
            config.price_caps[r] - result.prices[r];
        step[r] = std::min(step[r], std::max(headroom, 0.0));
        if (normalized[r] > config.demand_eps) {
          if (step[r] > 0.0) {
            any_movable = true;
          }
        }
      }
      if (!any_movable) {
        for (std::size_t r = 0; r < num_pools; ++r) {
          if (normalized[r] > config.demand_eps) {
            result.capped_pools.push_back(static_cast<PoolId>(r));
          }
        }
        result.converged = false;
        finalize();
        return result;
      }
    }

    if (!config.intra_round_bisection) {
      for (std::size_t r = 0; r < num_pools; ++r) {
        result.prices[r] += step[r];
      }
      continue;
    }

    // Peek at the post-step demand; if the full step would terminate the
    // auction, bisect the step fraction to reduce overshoot: find a
    // near-minimal λ ∈ (0, 1] with z(p + λ·g) ≤ 0. Each probe moves only
    // the stepped pools, so the engine re-evaluates O(touched) proxies.
    double source_lambda = 0.0;   // λ the source currently reflects.
    bool source_cleared = false;  // Whether z(source_lambda) ≤ 0.
    auto demand_at = [&](double lambda) {
      ++result.bisection_probes;
      for (std::size_t r = 0; r < num_pools; ++r) {
        probe_prices[r] = result.prices[r] + lambda * step[r];
      }
      collect(probe_prices);
      source_lambda = lambda;
      normalize(source.excess());
      source_cleared = AllNonPositive(normalized, config.demand_eps);
      return source_cleared;
    };
    if (!demand_at(1.0)) {
      // Full step still leaves excess demand: take it and continue. The
      // next round's collect sees bit-identical prices (p + 1.0·g), so
      // the engine's delta pass touches nothing and costs ~O(R).
      for (std::size_t r = 0; r < num_pools; ++r) {
        result.prices[r] += step[r];
      }
      continue;
    }
    if (timed && bisect_begin_ns == 0) bisect_begin_ns = PhaseNowNs();
    double lo = 0.0;  // Known: z(lo) has positive excess somewhere.
    double hi = 1.0;  // Known: z(hi) ≤ 0.
    for (int it = 0; it < kBisectionIters; ++it) {
      const double mid = 0.5 * (lo + hi);
      if (demand_at(mid)) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    // Land on `hi`, the smallest probed step that clears. When the last
    // probe already evaluated λ = hi (it cleared and tightened hi), its
    // decisions and excess are reused as-is instead of re-running a
    // demand collection.
    if (source_lambda != hi) {
      const bool cleared = demand_at(hi);
      PM_CHECK(cleared);
    }
    PM_CHECK(source_cleared);
    result.prices = probe_prices;
    result.rounds += 1;
    if (config.record_trajectory) {
      result.trajectory.push_back(
          RoundRecord{result.prices, source.excess()});
    }
    result.converged = true;
    finalize();
    return result;
  }
  // Round budget exhausted with excess demand remaining (possible with
  // traders, §III.C.3).
  result.converged = false;
  finalize();
  return result;
}

}  // namespace pm::auction
