// planetmarket: shard failure domains — the health state machine that the
// epoch supervisor drives.
//
// Each shard owns a four-state health record:
//
//   healthy ──fail──► degraded ──streak──► quarantined ──backoff──►
//   recovering ──clean epoch──► healthy   (fail again ──► quarantined)
//
// A *failure* is a shard epoch that threw (PM_CHECK tripping anywhere in
// the auction/settlement path, a wire link going down after retry
// exhaustion) or blew through its injected round budget. The supervisor
// contains the failure — the shard is rolled back to its epoch-boundary
// checkpoint, its treasury float refunded, every federated bid routed to
// it re-queued for next epoch's router pass — and this record decides
// what the shard is allowed to do next epoch. Backoff is denominated in
// epochs (virtual time), doubling per quarantine up to a cap, so the whole
// trajectory is deterministic and bit-identical across reruns and thread
// counts.
#pragma once

#include <cstdint>
#include <string_view>

namespace pm::federation {

/// Where a shard sits in its failure-recovery lifecycle.
enum class ShardHealth {
  kHealthy,      // Full participant.
  kDegraded,     // Failed recently; participates but sheds routed load.
  kQuarantined,  // Sitting out entirely while its backoff drains.
  kRecovering,   // Backoff drained; on probation for one clean epoch.
};

std::string_view ToString(ShardHealth health);

/// Supervisor policy knobs. Defaults keep the supervisor off: no
/// checkpoints are taken, and after every shard has cleared the
/// lowest-index failure propagates as an exception, once the treasury
/// sweep has squared every float.
struct SupervisorConfig {
  bool enabled = false;

  /// Consecutive failures before a shard is quarantined (a single failure
  /// only degrades it). Quarantine backoff is 1 epoch the first time and
  /// doubles per subsequent quarantine, capped at 8.
  int quarantine_streak = 2;
};

/// One shard's live health record, owned by FederatedExchange and
/// summarized into FederationReport::health each epoch.
struct ShardHealthStatus {
  ShardHealth status = ShardHealth::kHealthy;

  /// Consecutive failed epochs (reset by any clean active epoch).
  int failure_streak = 0;

  /// Epochs of quarantine left to sit out (counts down at epoch start).
  int backoff_remaining = 0;

  /// Times this shard has entered quarantine (drives exponential backoff).
  int quarantine_count = 0;

  /// Recovery attempts: quarantined → recovering transitions.
  int retries = 0;

  /// Checkpoint restores performed on this shard (one per contained
  /// failure).
  int restored_checkpoints = 0;

  /// Whether the shard runs an auction this epoch (false while
  /// quarantined). Set by the supervisor at epoch start.
  bool active = true;
};

}  // namespace pm::federation
