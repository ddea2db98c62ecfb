// planetmarket: the phase profiler — performance observability for the
// federated exchange (docs/observability.md, "Phase profiler").
//
// One PhaseProfiler per Telemetry instance assembles a per-(epoch,
// shard) view of where each epoch went, over two strictly separated
// channels:
//
//   * Work accounting (deterministic). Logical cost counters measured
//     on the hot paths — kernel dot-blocks per Kernel tier, bisection
//     probes, full vs incremental engine collections, dirty-bidder
//     counts, wire retries/dedups, settlement refund ops — recorded
//     per (epoch, shard) here and mirrored into the MetricsRegistry as
//     `fed_work_*` counters at the epoch barrier. Logical units only:
//     the numbers are byte-identical across reruns and thread counts,
//     which makes their drift a host-noise-immune proxy for perf
//     regressions (an incremental-fallback storm or kernel
//     de-vectorization fires deterministically even on a noisy
//     single-vCPU host).
//
//   * Wall clock. Real phase spans (collect → bisect → settle on each
//     shard track; a whole-epoch span enclosing route → barrier on the
//     federation track), exported as chrome://tracing JSON for
//     flamegraph-style inspection. Wall values are scheduling-dependent
//     by nature, so they live ONLY here, never in the deterministic
//     channel.
//
// Both channels sit behind ProfilerConfig sub-gates of TelemetryConfig;
// off is bit-identical (bench/telemetry_overhead byte-compares a
// profiler-armed run against the unarmed baseline). All mutation
// happens at single-threaded epoch barriers, like the rest of the
// telemetry plane; the class is not thread-safe by design.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/phase_span.h"

namespace pm::telemetry {

/// Sub-gates of TelemetryConfig. Both default off; either one arms the
/// profiler object itself.
struct ProfilerConfig {
  /// Deterministic work-accounting channel: per-(epoch, shard) logical
  /// cost counters, `fed_work_*` registry series, `derived:work_*`
  /// recording rules and drift alerts (when the watchdog sub-gates are
  /// also armed), and the flight recorder's phase work tree.
  bool work_accounting = false;

  /// Wall-clock channel: phase spans and chrome://tracing export. Never
  /// touches the deterministic outputs — shard spans are carried on
  /// AuctionReport and recorded at the epoch barrier.
  bool wall_clock = false;
};

/// One epoch's logical work, for one shard. Copied from AuctionReport at
/// the epoch barrier; every field is deterministic.
struct WorkCounters {
  long long dot_blocks = 0;       // kernel dot-block calls (full sweeps)
  long long dirty_bidders = 0;    // bidders re-evaluated incrementally
  long long bisection_probes = 0;
  long long full_collections = 0;
  long long incremental_collections = 0;
  long long wire_retries = 0;     // lossy-wire frames retried
  long long wire_dedups = 0;      // frames the receiver discarded
  long long refund_ops = 0;       // settlement refund payouts
  std::string kernel;             // resolved dot-kernel tier
};

class PhaseProfiler {
 public:
  /// `tracks` names the wall-channel tracks, one per shard in shard
  /// order; a synthetic "federation" track for epoch/route/barrier
  /// spans is appended after them (see federation_track()).
  PhaseProfiler(ProfilerConfig config, std::vector<std::string> tracks);

  const ProfilerConfig& config() const { return config_; }

  // --- deterministic work-accounting channel ---

  /// Records one shard's work for `epoch`. Barrier-side only.
  void RecordWork(int epoch, std::size_t shard, WorkCounters counters);

  /// The recorded counters, or nullptr when that (epoch, shard) never
  /// reported (telemetry off that epoch, or the shard failed).
  const WorkCounters* FindWork(int epoch, std::size_t shard) const;

  /// Renders the shard's phase work tree for the most recent recorded
  /// epochs at or before `epoch` (up to `history` of them), newest
  /// last. This is what the flight recorder attaches to containment
  /// dumps: a failing shard's report is rolled back with the epoch, so
  /// the tree shows the run-up — where the shard was burning its round
  /// budget — plus a note for the unrecorded failing epoch itself.
  std::string RenderWorkTree(std::size_t shard, int epoch,
                             int history = 3) const;

  // --- wall-clock channel ---

  /// Index of the synthetic federation track.
  std::size_t federation_track() const { return tracks_.size() - 1; }

  /// Records a closed span on `track`.
  void AddSpan(std::size_t track, int epoch, PhaseSpan span);

  /// chrome://tracing "Trace Event Format" JSON: one complete ("X")
  /// event per span, one metadata ("M") thread_name record per track,
  /// timestamps in microseconds normalized to the earliest span.
  std::string ChromeTraceJson() const;

  /// Number of recorded wall spans (tests).
  std::size_t num_spans() const { return events_.size(); }

 private:
  struct TraceEvent {
    std::size_t track = 0;
    int epoch = 0;
    PhaseSpan span;
  };

  ProfilerConfig config_;
  std::vector<std::string> tracks_;
  // epoch -> shard -> that epoch's work. Ordered maps keep every render
  // and export deterministic.
  std::map<int, std::map<std::size_t, WorkCounters>> work_;
  std::vector<TraceEvent> events_;
};

/// RAII wall-span recorder for barrier-side federation phases. A null
/// profiler makes construction and destruction no-ops, so call sites
/// pay one pointer test when the wall channel is off.
class ScopedSpan {
 public:
  ScopedSpan(PhaseProfiler* profiler, std::size_t track, int epoch,
             std::string name)
      : profiler_(profiler), track_(track), epoch_(epoch) {
    if (profiler_ != nullptr) {
      name_ = std::move(name);
      begin_ns_ = PhaseNowNs();
    }
  }
  ~ScopedSpan() { Stop(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Closes and records the span early (idempotent).
  void Stop() {
    if (profiler_ == nullptr) return;
    profiler_->AddSpan(track_, epoch_,
                       PhaseSpan{std::move(name_), begin_ns_, PhaseNowNs()});
    profiler_ = nullptr;
  }

 private:
  PhaseProfiler* profiler_;
  std::size_t track_;
  int epoch_;
  std::string name_;
  std::uint64_t begin_ns_ = 0;
};

}  // namespace pm::telemetry
