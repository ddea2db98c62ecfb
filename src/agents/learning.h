// planetmarket: bidder price learning.
//
// §V.C observes that "as users become more familiar with the market prices
// we have seen the reserve prices associated with bids move from closely
// tracking the former fixed price values to values much closer to the
// dynamic market prices", driving the median bid premium γ down across
// auctions (Table I). PriceLearner models that adaptation: an exponential
// smoothing belief about per-pool prices plus a decaying safety markup.
#pragma once

#include <span>
#include <vector>

namespace pm::agents {

/// Per-pool price beliefs with a shrinking bidding markup.
class PriceLearner {
 public:
  /// `initial_beliefs` is the dense vector the bidder starts from (the
  /// former fixed prices in our experiments). `smoothing` λ ∈ (0, 1] is
  /// the weight of a new observation; `initial_markup` is the safety
  /// margin added on top of believed cost when bidding (e.g. 0.6 = 60 %
  /// above belief); `markup_decay` multiplies the markup after every
  /// observed auction.
  PriceLearner(std::vector<double> initial_beliefs, double smoothing,
               double initial_markup, double markup_decay);

  /// Current believed price for a pool. Inline: strategies read a
  /// belief per pool of every candidate cluster on every bid.
  double Belief(std::size_t pool) const {
    if (pool >= beliefs_.size()) BeliefOutOfRange(pool);
    return beliefs_[pool];
  }

  /// Current safety markup (≥ 0).
  double Markup() const { return markup_; }

  /// Folds one auction's settled prices into the beliefs and decays the
  /// markup — call exactly once per observed auction.
  void Observe(std::span<const double> settled_prices);

  /// Grows the belief vector to cover a larger pool space (the market's
  /// pool registry is append-only, so existing ids keep their beliefs).
  /// `defaults[r]` seeds the belief of each new pool r; `defaults` must
  /// cover at least the current beliefs.
  void ExtendBeliefs(std::span<const double> defaults);

  /// Number of pools the learner tracks.
  std::size_t NumPools() const { return beliefs_.size(); }

  /// Number of auctions observed so far.
  int ObservationCount() const { return observations_; }

  /// The full belief vector, for checkpointing.
  const std::vector<double>& beliefs() const { return beliefs_; }

  /// Checkpoint restore of the learned state. The smoothing and decay
  /// constants are construction-time parameters and stay as built.
  void RestoreState(std::vector<double> beliefs, double markup,
                    int observations);

 private:
  /// Belief's failure path: throws CheckFailure naming the pool.
  [[noreturn]] void BeliefOutOfRange(std::size_t pool) const;

  std::vector<double> beliefs_;
  double smoothing_;
  double markup_;
  double markup_decay_;
  int observations_ = 0;
};

}  // namespace pm::agents
