// planetmarket: bid-lifecycle tracing.
//
// Every federated bid is assigned a trace id when it enters the exchange;
// the federation emits spans as the bid moves through its lifecycle:
//
//   submit ──► route ──► shard-auction (on the routed part's shard)
//          ──► settle / reject (from the shard's award or rejection
//              record) ──► reroute (supervisor aftermath when the
//              part's shard failed)
//
// so one bid's fate — which shards it touched, what each auction did
// with it, what physically placed and what was refunded — is
// reconstructible end to end from the span log.
//
// Time is LOGICAL: every span carries (epoch, seq) where seq is a global
// emission counter. Spans are emitted only from single-threaded epoch
// sections of the federation, so the log, its ids and its JSON rendering
// are byte-identical across reruns and thread counts — the same
// determinism contract as the metrics registry.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pm::telemetry {

/// One lifecycle event of one traced bid.
struct Span {
  std::uint64_t trace = 0;   // Bid lifecycle id (1-based; 0 = untraced).
  std::uint64_t seq = 0;     // Global logical sequence number.
  std::string name;          // "submit", "route", "shard-auction", …
  int epoch = 0;             // Federation epoch the span belongs to.
  int shard = -1;            // Shard index; -1 for federation-level spans.
  /// Attribute pairs in emission order (deterministic render order).
  std::vector<std::pair<std::string, std::string>> attrs;

  /// One-line rendering ("[e3 #17] shard-auction shard=0 trace=5 k=v …"),
  /// used by the flight recorder and the dump artifacts.
  std::string Render() const;
};

/// Collects spans and hands out trace ids. Single-writer (see header).
class BidTracer {
 public:
  /// A fresh lifecycle id (monotone from 1).
  std::uint64_t NewTrace() { return next_trace_++; }

  /// Appends a span, stamping its global sequence number. Returns a
  /// reference valid until the next Emit.
  Span& Emit(std::uint64_t trace, std::string name, int epoch, int shard);

  const std::vector<Span>& spans() const { return spans_; }

  /// Every span of one trace, in emission order (linear scan — dump-time
  /// and test-time use only).
  std::vector<const Span*> SpansOf(std::uint64_t trace) const;

  /// Deterministic JSON array of all spans.
  std::string ToJson() const;

 private:
  std::vector<Span> spans_;
  std::uint64_t next_trace_ = 1;
  std::uint64_t next_seq_ = 1;
};

}  // namespace pm::telemetry
