// planetmarket: the bid-collection window (§V.A, Figure 5).
//
// The trading platform collects bids over a window of time; during that
// window "the mapping, simulation, and price update process is run at
// periodic intervals … the preliminary, updated settlement prices are
// displayed on the market front end. At the conclusion of this phase,
// one last simulation is run [whose] results determine the final,
// binding market prices". BidWindow reproduces that flow on the
// simulation clock: bids accumulate, a periodic tick recomputes
// non-binding preliminary prices from the current book, and Close()
// returns the final bid set for the binding auction.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bid/bid.h"
#include "sim/event_queue.h"
#include "sim/process.h"

namespace pm::exchange {

/// One preliminary price computation during the window.
struct PreliminaryTick {
  sim::SimTime at = 0.0;
  std::size_t bids_in_book = 0;
  std::vector<double> prices;
};

/// A bid book that is open for a fixed span of simulated time.
class BidWindow {
 public:
  /// `compute_preliminary` maps the current book to non-binding prices
  /// (typically Market::ComputePreliminaryPrices); ticks fire every
  /// `tick_period` from opening until `close_at`. The book accepts only
  /// bids valid over `num_pools` pools. The window registers itself on
  /// `queue` immediately.
  BidWindow(sim::EventQueue& queue, std::size_t num_pools,
            sim::SimTime close_at, sim::SimTime tick_period,
            std::function<std::vector<double>(std::vector<bid::Bid>)>
                compute_preliminary);

  ~BidWindow();

  BidWindow(const BidWindow&) = delete;
  BidWindow& operator=(const BidWindow&) = delete;

  /// Submits a bid. Returns false (bid rejected) once the window closed
  /// or when bid::ValidateBid finds the bid malformed.
  bool Submit(bid::Bid bid);

  /// Replaces the caller's earlier bids (matched by Bid::name): the
  /// "respond to environmental conditions" behaviour §II allows during
  /// the entry period. Returns the number of replaced bids; a malformed
  /// replacement replaces nothing.
  std::size_t Amend(const std::string& name, bid::Bid replacement);

  /// Withdraws all bids with the given name. Returns how many were
  /// removed. Only valid while open.
  std::size_t Withdraw(const std::string& name);

  bool IsOpen() const { return open_; }

  /// Number of bids currently in the book.
  std::size_t BookSize() const { return book_.size(); }

  /// Preliminary price history so far (one entry per fired tick).
  const std::vector<PreliminaryTick>& Ticks() const { return ticks_; }

  /// The most recent preliminary prices (empty before the first tick).
  const std::vector<double>& LatestPreliminaryPrices() const;

  /// Closes the book and returns the final bids with user ids assigned —
  /// ready for the binding ClockAuction. Reaching `close_at` on the queue
  /// seals the book (no submits, no ticks) but keeps it for this call.
  /// Idempotent: a later call returns no bids.
  std::vector<bid::Bid> Close();

 private:
  void OnTick();

  sim::EventQueue& queue_;
  std::size_t num_pools_;
  std::function<std::vector<double>(std::vector<bid::Bid>)>
      compute_preliminary_;
  std::vector<bid::Bid> book_;
  std::vector<PreliminaryTick> ticks_;
  bool open_ = true;
  sim::EventId close_event_ = 0;
  std::unique_ptr<sim::PeriodicProcess> tick_process_;
};

}  // namespace pm::exchange
