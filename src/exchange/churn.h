// planetmarket: organic workload churn between auctions.
//
// The paper's experiments ran "over the course of several months" (§V.B):
// between auctions, teams' workloads kept evolving — services launched,
// grew and retired independently of the market. ChurnProcess reproduces
// that background evolution on the simulation clock: Poisson job
// arrivals (placed in each team's home cluster) with exponential
// lifetimes. Combined with a PeriodicProcess running Market::RunAuction,
// this yields the full longitudinal setting: the market periodically
// re-prices a fleet that never stops changing underneath it.
#pragma once

#include <cstdint>

#include "agents/team.h"
#include "cluster/fleet.h"
#include "cluster/quota.h"
#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/process.h"

namespace pm::exchange {

/// Tuning for the churn stream. Time unit matches the event queue
/// (hours in the provided examples/benches).
struct ChurnConfig {
  /// Fleet-wide job arrival rate (jobs per hour). Arrivals pick a team
  /// weighted by footprint — big teams launch more services.
  double arrival_rate = 0.5;

  /// Mean job lifetime (hours); lifetimes are exponential. Jobs also
  /// die when their team vacates the cluster mid-life (the market's
  /// physical settlement removes them); that is handled gracefully.
  double mean_lifetime = 300.0;

  std::uint64_t seed = 1;
};

/// Statistics accumulated by a churn run.
struct ChurnStats {
  long long jobs_started = 0;
  long long jobs_finished = 0;
  long long placement_failures = 0;  // Arrival did not fit the cluster.
  long long quota_rejections = 0;    // Arrival denied by quota (§I).
};

/// The background arrival/departure stream. Construction arms the
/// process; it runs until Stop() or queue exhaustion.
class ChurnProcess {
 public:
  /// `queue`, `fleet` and `agents` must outlive the process. When a
  /// `quota` table is supplied (typically Market::mutable_quota()),
  /// arrivals are admission-controlled against it — §I's "allocation
  /// limits mapped into the low-level scheduling algorithms" — and
  /// usage is charged/refunded as churn jobs come and go.
  ChurnProcess(sim::EventQueue& queue, cluster::Fleet* fleet,
               std::vector<agents::TeamAgent>* agents, ChurnConfig config,
               cluster::QuotaTable* quota = nullptr);

  ~ChurnProcess();

  ChurnProcess(const ChurnProcess&) = delete;
  ChurnProcess& operator=(const ChurnProcess&) = delete;

  /// Halts future arrivals (scheduled departures still drain).
  void Stop();

  const ChurnStats& stats() const { return stats_; }

 private:
  bool OnArrival();

  sim::EventQueue& queue_;
  cluster::Fleet* fleet_;
  std::vector<agents::TeamAgent>* agents_;
  ChurnConfig config_;
  cluster::QuotaTable* quota_;
  RandomStream rng_;
  ChurnStats stats_;
  cluster::JobId next_job_id_ = 5'000'000;  // Churn-owned id space.
  std::unique_ptr<sim::PoissonProcess> arrivals_;
};

}  // namespace pm::exchange
