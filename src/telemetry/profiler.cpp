#include "telemetry/profiler.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"
#include "common/table.h"

namespace pm::telemetry {
namespace {

/// Microseconds with sub-microsecond detail — chrome's native unit.
std::string Us(std::uint64_t ns) { return FormatF(ns / 1000.0, 3); }

}  // namespace

PhaseProfiler::PhaseProfiler(ProfilerConfig config,
                             std::vector<std::string> tracks)
    : config_(config), tracks_(std::move(tracks)) {
  tracks_.push_back("federation");
}

void PhaseProfiler::RecordWork(int epoch, std::size_t shard,
                               WorkCounters counters) {
  work_[epoch][shard] = std::move(counters);
}

const WorkCounters* PhaseProfiler::FindWork(int epoch,
                                            std::size_t shard) const {
  auto by_epoch = work_.find(epoch);
  if (by_epoch == work_.end()) return nullptr;
  auto by_shard = by_epoch->second.find(shard);
  if (by_shard == by_epoch->second.end()) return nullptr;
  return &by_shard->second;
}

std::string PhaseProfiler::RenderWorkTree(std::size_t shard, int epoch,
                                          int history) const {
  // Walk backwards from `epoch`, collecting the shard's most recent
  // recorded epochs, then render oldest first so the dump reads like a
  // timeline ending at the failure.
  std::vector<std::pair<int, const WorkCounters*>> recent;
  for (auto it = work_.rbegin();
       it != work_.rend() && static_cast<int>(recent.size()) < history;
       ++it) {
    if (it->first > epoch) continue;
    auto by_shard = it->second.find(shard);
    if (by_shard == it->second.end()) continue;
    recent.emplace_back(it->first, &by_shard->second);
  }
  std::reverse(recent.begin(), recent.end());

  std::ostringstream os;
  os << "phase work tree: shard " << shard << ", last "
     << recent.size() << " recorded epoch(s)\n";
  if (recent.empty()) {
    os << "  (no work recorded yet)\n";
  }
  for (const auto& [e, w] : recent) {
    os << "  epoch " << e << ":\n";
    os << "    collect: full=" << w->full_collections
       << " incremental=" << w->incremental_collections
       << " dot_blocks=" << w->dot_blocks
       << " dirty_bidders=" << w->dirty_bidders << "\n";
    os << "    bisect: probes=" << w->bisection_probes << "\n";
    os << "    settle: refund_ops=" << w->refund_ops << "\n";
    os << "    wire: retries=" << w->wire_retries
       << " dedups=" << w->wire_dedups << "\n";
  }
  if (recent.empty() || recent.back().first < epoch) {
    os << "  epoch " << epoch
       << ": (not recorded — rolled back with the failing epoch)\n";
  }
  return os.str();
}

void PhaseProfiler::AddSpan(std::size_t track, int epoch, PhaseSpan span) {
  PM_CHECK_MSG(track < tracks_.size(), "profiler: span on unknown track");
  events_.push_back(TraceEvent{track, epoch, std::move(span)});
}

std::string PhaseProfiler::ChromeTraceJson() const {
  // Normalize timestamps to the earliest span so traces start at t=0
  // regardless of the process's steady_clock origin.
  std::uint64_t t0 = 0;
  bool have_t0 = false;
  for (const TraceEvent& ev : events_) {
    if (!have_t0 || ev.span.begin_ns < t0) {
      t0 = ev.span.begin_ns;
      have_t0 = true;
    }
  }

  std::ostringstream os;
  os << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
  bool first = true;
  // One metadata record per track: chrome renders each tid as a named
  // row (one track per shard plus the federation barrier track).
  for (std::size_t t = 0; t < tracks_.size(); ++t) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"ph\": \"M\", \"pid\": 1, \"tid\": " << t
       << ", \"name\": \"thread_name\", \"args\": {\"name\": "
       << JsonQuote(tracks_[t]) << "}}";
  }
  for (const TraceEvent& ev : events_) {
    const std::uint64_t begin = ev.span.begin_ns - t0;
    const std::uint64_t dur =
        ev.span.end_ns >= ev.span.begin_ns
            ? ev.span.end_ns - ev.span.begin_ns
            : 0;
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"ph\": \"X\", \"pid\": 1, \"tid\": " << ev.track
       << ", \"name\": " << JsonQuote(ev.span.name)
       << ", \"ts\": " << Us(begin) << ", \"dur\": " << Us(dur)
       << ", \"args\": {\"epoch\": " << ev.epoch << "}}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

}  // namespace pm::telemetry
