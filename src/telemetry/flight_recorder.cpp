#include "telemetry/flight_recorder.h"

#include <sstream>

#include "common/check.h"
#include "common/table.h"

namespace pm::telemetry {
FlightRecorder::FlightRecorder(std::size_t num_shards,
                               std::size_t capacity)
    : capacity_(capacity), rings_(num_shards), dropped_(num_shards, 0) {
  PM_CHECK_MSG(capacity >= 1, "flight recorder needs capacity >= 1");
}

void FlightRecorder::Record(std::size_t shard, FlightEvent event) {
  PM_CHECK(shard < rings_.size());
  std::deque<FlightEvent>& ring = rings_[shard];
  ring.push_back(std::move(event));
  while (ring.size() > capacity_) {
    ring.pop_front();
    ++dropped_[shard];
  }
}

std::uint64_t FlightRecorder::Dropped(std::size_t shard) const {
  PM_CHECK(shard < dropped_.size());
  return dropped_[shard];
}

const std::deque<FlightEvent>& FlightRecorder::Ring(
    std::size_t shard) const {
  PM_CHECK(shard < rings_.size());
  return rings_[shard];
}

const FlightDump& FlightRecorder::DumpShard(
    std::size_t shard, const std::string& shard_name, int epoch,
    const std::string& reason, const std::string& transition,
    const std::vector<std::pair<std::uint64_t,
                                std::vector<std::string>>>& chains,
    const std::string& work_tree) {
  PM_CHECK(shard < rings_.size());
  FlightDump dump;
  dump.epoch = epoch;
  dump.shard = shard;
  dump.shard_name = shard_name;
  dump.reason = reason;
  dump.transition = transition;
  dump.dropped_events = dropped_[shard];

  std::ostringstream os;
  os << "=== flight recorder: shard " << shard << " ('" << shard_name
     << "') epoch " << epoch << " ===\n";
  os << "reason: " << reason << "\n";
  os << "health: " << transition << "\n";
  os << "-- recent events (oldest first, ring capacity " << capacity_
     << ", " << dump.dropped_events << " older events dropped) --\n";
  for (const FlightEvent& event : rings_[shard]) {
    os << event.line << "\n";
  }
  os << "-- bid span chains through this shard --\n";
  if (chains.empty()) {
    os << "(no traced bids touched this shard this epoch)\n";
  }
  for (const auto& [trace, lines] : chains) {
    os << "trace " << trace << ":\n";
    for (const std::string& line : lines) {
      os << "  " << line << "\n";
    }
  }
  if (!work_tree.empty()) {
    os << "-- phase work tree (profiler, work counters only) --\n";
    os << work_tree;
    if (work_tree.back() != '\n') os << "\n";
  }
  dump.text = os.str();
  dumps_.push_back(std::move(dump));
  return dumps_.back();
}

std::string FlightRecorder::DumpsJson() const {
  std::ostringstream os;
  os << "[\n";
  for (std::size_t i = 0; i < dumps_.size(); ++i) {
    const FlightDump& d = dumps_[i];
    os << "  {\"epoch\": " << d.epoch << ", \"shard\": " << d.shard
       << ", \"shard_name\": " << JsonQuote(d.shard_name)
       << ", \"reason\": " << JsonQuote(d.reason)
       << ", \"transition\": " << JsonQuote(d.transition)
       << ", \"dropped_events\": " << d.dropped_events
       << ", \"text\": " << JsonQuote(d.text) << "}"
       << (i + 1 < dumps_.size() ? "," : "") << "\n";
  }
  os << "]";
  return os.str();
}

}  // namespace pm::telemetry
