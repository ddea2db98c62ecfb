#include "agents/learning.h"

#include "common/check.h"

namespace pm::agents {

PriceLearner::PriceLearner(std::vector<double> initial_beliefs,
                           double smoothing, double initial_markup,
                           double markup_decay)
    : beliefs_(std::move(initial_beliefs)),
      smoothing_(smoothing),
      markup_(initial_markup),
      markup_decay_(markup_decay) {
  PM_CHECK_MSG(smoothing_ > 0.0 && smoothing_ <= 1.0,
               "smoothing must be in (0, 1], got " << smoothing_);
  PM_CHECK_MSG(markup_ >= 0.0, "markup must be non-negative");
  PM_CHECK_MSG(markup_decay_ >= 0.0 && markup_decay_ <= 1.0,
               "markup decay must be in [0, 1]");
  PM_CHECK(!beliefs_.empty());
}

void PriceLearner::BeliefOutOfRange(std::size_t pool) const {
  PM_CHECK_MSG(false, "pool " << pool << " beyond beliefs of size "
                              << beliefs_.size());
}

void PriceLearner::ExtendBeliefs(std::span<const double> defaults) {
  PM_CHECK_MSG(defaults.size() >= beliefs_.size(),
               "defaults cover " << defaults.size()
                                 << " pools, beliefs already track "
                                 << beliefs_.size());
  for (std::size_t r = beliefs_.size(); r < defaults.size(); ++r) {
    beliefs_.push_back(defaults[r]);
  }
}

void PriceLearner::RestoreState(std::vector<double> beliefs, double markup,
                                int observations) {
  PM_CHECK_MSG(beliefs.size() >= beliefs_.size(),
               "restored beliefs cover " << beliefs.size()
                                         << " pools, learner tracks "
                                         << beliefs_.size());
  PM_CHECK_MSG(markup >= 0.0, "restored markup must be non-negative");
  PM_CHECK_MSG(observations >= 0, "restored observation count is negative");
  beliefs_ = std::move(beliefs);
  markup_ = markup;
  observations_ = observations;
}

void PriceLearner::Observe(std::span<const double> settled_prices) {
  PM_CHECK_MSG(settled_prices.size() == beliefs_.size(),
               "observed " << settled_prices.size()
                           << " prices, beliefs track " << beliefs_.size());
  for (std::size_t r = 0; r < beliefs_.size(); ++r) {
    beliefs_[r] =
        (1.0 - smoothing_) * beliefs_[r] + smoothing_ * settled_prices[r];
  }
  markup_ *= markup_decay_;
  ++observations_;
}

}  // namespace pm::agents
