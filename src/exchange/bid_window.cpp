#include "exchange/bid_window.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace pm::exchange {

BidWindow::BidWindow(
    sim::EventQueue& queue, std::size_t num_pools, sim::SimTime close_at,
    sim::SimTime tick_period,
    std::function<std::vector<double>(std::vector<bid::Bid>)>
        compute_preliminary)
    : queue_(queue),
      num_pools_(num_pools),
      compute_preliminary_(std::move(compute_preliminary)) {
  PM_CHECK(compute_preliminary_ != nullptr);
  PM_CHECK_MSG(close_at > queue.Now(),
               "window must close in the future");
  PM_CHECK_MSG(tick_period > 0.0, "tick period must be positive");
  // The deadline only seals the book; the first Close() still returns it.
  close_event_ = queue_.ScheduleAt(close_at, [this] {
    close_event_ = 0;
    open_ = false;
    tick_process_->Stop();
  });
  tick_process_ = std::make_unique<sim::PeriodicProcess>(
      queue_, queue.Now() + tick_period, tick_period, [this](int) {
        if (!open_) return false;
        OnTick();
        return true;
      });
}

BidWindow::~BidWindow() {
  // Cancel pending events; do not run the binding close from a dtor.
  if (close_event_ != 0) queue_.Cancel(close_event_);
  if (tick_process_ != nullptr) tick_process_->Stop();
}

bool BidWindow::Submit(bid::Bid bid) {
  if (!open_ || !bid::ValidateBid(bid, num_pools_).empty()) return false;
  book_.push_back(std::move(bid));
  return true;
}

std::size_t BidWindow::Amend(const std::string& name,
                             bid::Bid replacement) {
  if (!open_ || !bid::ValidateBid(replacement, num_pools_).empty()) return 0;
  const std::size_t removed = Withdraw(name);
  if (removed > 0) {
    book_.push_back(std::move(replacement));
  }
  return removed;
}

std::size_t BidWindow::Withdraw(const std::string& name) {
  if (!open_) return 0;
  const auto new_end =
      std::remove_if(book_.begin(), book_.end(),
                     [&name](const bid::Bid& b) { return b.name == name; });
  const auto removed =
      static_cast<std::size_t>(book_.end() - new_end);
  book_.erase(new_end, book_.end());
  return removed;
}

const std::vector<double>& BidWindow::LatestPreliminaryPrices() const {
  static const std::vector<double> kEmpty;
  return ticks_.empty() ? kEmpty : ticks_.back().prices;
}

void BidWindow::OnTick() {
  PreliminaryTick tick;
  tick.at = queue_.Now();
  tick.bids_in_book = book_.size();
  std::vector<bid::Bid> snapshot = book_;
  bid::AssignUserIds(snapshot);
  tick.prices = compute_preliminary_(std::move(snapshot));
  ticks_.push_back(std::move(tick));
}

std::vector<bid::Bid> BidWindow::Close() {
  open_ = false;
  if (close_event_ != 0) {
    queue_.Cancel(close_event_);
    close_event_ = 0;
  }
  tick_process_->Stop();
  // A sealed book takes no more bids, so a second Close() returns none.
  std::vector<bid::Bid> final_bids = std::exchange(book_, {});
  bid::AssignUserIds(final_bids);
  return final_bids;
}

}  // namespace pm::exchange
