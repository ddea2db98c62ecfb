#include "exchange/churn.h"

#include <algorithm>

#include "common/check.h"

namespace pm::exchange {
namespace {

/// Per-task shape ranges for arriving jobs.
constexpr double kMinTaskCpu = 0.5;
constexpr double kMaxTaskCpu = 4.0;
constexpr int kMinTasks = 2;
constexpr int kMaxTasks = 24;

}  // namespace

ChurnProcess::ChurnProcess(sim::EventQueue& queue, cluster::Fleet* fleet,
                           std::vector<agents::TeamAgent>* agents,
                           ChurnConfig config,
                           cluster::QuotaTable* quota)
    : queue_(queue),
      fleet_(fleet),
      agents_(agents),
      config_(config),
      quota_(quota),
      rng_(config.seed) {
  PM_CHECK(fleet_ != nullptr && agents_ != nullptr);
  PM_CHECK_MSG(!agents_->empty(), "churn needs at least one team");
  PM_CHECK_MSG(config_.arrival_rate > 0.0, "arrival rate must be positive");
  PM_CHECK_MSG(config_.mean_lifetime > 0.0, "lifetime must be positive");
  arrivals_ = std::make_unique<sim::PoissonProcess>(
      queue_, config_.arrival_rate, rng_, [this] { return OnArrival(); });
}

ChurnProcess::~ChurnProcess() { Stop(); }

void ChurnProcess::Stop() {
  if (arrivals_ != nullptr) arrivals_->Stop();
}

bool ChurnProcess::OnArrival() {
  // Pick a team, footprint-weighted: large teams launch more services.
  std::vector<double> weights;
  weights.reserve(agents_->size());
  for (const agents::TeamAgent& agent : *agents_) {
    weights.push_back(std::max(agent.profile().footprint.cpu, 1.0));
  }
  const std::size_t team_index = rng_.PickWeighted(weights);
  const agents::TeamProfile& profile =
      (*agents_)[team_index].profile();

  cluster::Job job;
  job.id = next_job_id_++;
  job.team = profile.name;
  const double task_cpu = rng_.Uniform(kMinTaskCpu, kMaxTaskCpu);
  job.shape = cluster::TaskShape{task_cpu,
                                 task_cpu * rng_.Uniform(2.0, 6.0),
                                 rng_.Uniform(0.05, 1.0)};
  job.tasks = static_cast<int>(rng_.UniformInt(kMinTasks, kMaxTasks));

  if (!fleet_->HasCluster(profile.home_cluster)) {
    ++stats_.placement_failures;
    return true;
  }
  // §I admission control: the quota granted by the market is the hard
  // limit the scheduler enforces.
  if (quota_ != nullptr &&
      quota_->WouldExceed(profile.name, fleet_->registry(),
                          profile.home_cluster, job.TotalDemand())) {
    ++stats_.quota_rejections;
    return true;
  }
  if (!fleet_->AddJob(profile.home_cluster, job)) {
    ++stats_.placement_failures;
    return true;  // Keep the stream alive; the cluster was full.
  }
  if (quota_ != nullptr) {
    quota_->Charge(profile.name, fleet_->registry(),
                   profile.home_cluster, job.TotalDemand());
  }
  ++stats_.jobs_started;

  // Schedule retirement. The job may have been removed earlier by the
  // market's physical settlement (team sold the capacity); RemoveJob
  // returning nullopt is the normal signal for that — the market
  // refunded its quota when it removed it.
  const sim::SimTime lifetime =
      rng_.Exponential(1.0 / config_.mean_lifetime);
  const cluster::JobId id = job.id;
  queue_.ScheduleAfter(lifetime, [this, id] {
    const std::string where = fleet_->LocateJob(id);
    if (where.empty()) return;  // Already gone (market settlement).
    const cluster::Job* job_ptr =
        fleet_->ClusterByName(where).FindJob(id);
    PM_CHECK(job_ptr != nullptr);
    const std::string team = job_ptr->team;
    const cluster::TaskShape demand = job_ptr->TotalDemand();
    if (fleet_->RemoveJob(id).has_value()) {
      if (quota_ != nullptr) {
        quota_->Refund(team, fleet_->registry(), where, demand);
      }
      ++stats_.jobs_finished;
    }
  });
  return true;
}

}  // namespace pm::exchange
