#include "agents/workload_gen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace pm::agents {
namespace {

std::string ClusterName(int index) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "r%02d", index + 1);
  return buf;
}

StrategyKind DrawStrategy(const WorkloadConfig& config, RandomStream& rng) {
  const double x = rng.NextDouble();
  double cum = config.frac_premium_sticky;
  if (x < cum) return StrategyKind::kPremiumSticky;
  cum += config.frac_opportunist_mover;
  if (x < cum) return StrategyKind::kOpportunistMover;
  cum += config.frac_lowball_seller;
  if (x < cum) return StrategyKind::kLowballSeller;
  cum += config.frac_arbitrageur;
  if (x < cum) return StrategyKind::kArbitrageur;
  return StrategyKind::kTruthfulGrowth;
}

}  // namespace

World GenerateWorld(const WorkloadConfig& config) {
  PM_CHECK(config.num_clusters >= 2);
  PM_CHECK(config.num_teams >= 1);
  PM_CHECK(config.min_machines_per_cluster >= 1 &&
           config.max_machines_per_cluster >=
               config.min_machines_per_cluster);
  PM_CHECK(config.min_target_utilization >= 0.0 &&
           config.max_target_utilization <= 1.0 &&
           config.min_target_utilization <=
               config.max_target_utilization);

  RandomStream rng(config.seed);

  // --- Clusters with a shuffled utilization ramp -------------------------
  std::vector<double> targets(config.num_clusters);
  for (int c = 0; c < config.num_clusters; ++c) {
    const double t = config.num_clusters == 1
                         ? 0.0
                         : static_cast<double>(c) /
                               (config.num_clusters - 1);
    targets[c] = config.min_target_utilization +
                 t * (config.max_target_utilization -
                      config.min_target_utilization);
  }
  rng.Shuffle(targets);

  std::vector<cluster::Cluster> clusters;
  clusters.reserve(config.num_clusters);
  for (int c = 0; c < config.num_clusters; ++c) {
    const int machines = static_cast<int>(
        rng.UniformInt(config.min_machines_per_cluster,
                       config.max_machines_per_cluster));
    clusters.push_back(cluster::Cluster::Homogeneous(
        ClusterName(c), machines, kMachineShape));
  }
  cluster::Fleet fleet(std::move(clusters), kUnitCosts);

  // --- Teams: homes weighted toward congested clusters -------------------
  // Historical pile-up is what created the hot clusters in the first
  // place, so more teams live where utilization is targeted high.
  std::vector<double> home_weights(targets.begin(), targets.end());
  for (double& w : home_weights) w = 0.15 + w;  // Cold clusters get some.

  struct Draft {
    TeamProfile profile;
    std::uint64_t seed;
  };
  std::vector<Draft> drafts;
  drafts.reserve(config.num_teams);
  for (int t = 0; t < config.num_teams; ++t) {
    TeamProfile profile;
    char name[32];
    std::snprintf(name, sizeof(name), "team-%03d", t + 1);
    profile.name = name;
    profile.home_cluster =
        ClusterName(static_cast<int>(rng.PickWeighted(home_weights)));
    profile.growth_rate = rng.Uniform(0.05, 0.25);
    profile.value_multiplier = rng.Uniform(1.3, 2.6);
    profile.strategy = DrawStrategy(config, rng);
    drafts.push_back(Draft{std::move(profile), rng.NextRaw()});
  }

  // --- Jobs: fill each cluster to its target utilization -----------------
  // Jobs are drawn from the teams homed in that cluster, round-robin, so
  // footprints follow the congestion pattern. Each placed job adds to its
  // team's footprint as it lands: cluster by cluster in fleet order, the
  // order the fleet's job lists give.
  std::vector<cluster::TaskShape> footprints(drafts.size());
  cluster::JobId next_job = 1;
  for (int c = 0; c < config.num_clusters; ++c) {
    const std::string cname = ClusterName(c);
    std::vector<std::size_t> local_teams;
    for (std::size_t t = 0; t < drafts.size(); ++t) {
      if (drafts[t].profile.home_cluster == cname) local_teams.push_back(t);
    }
    if (local_teams.empty()) continue;
    cluster::Cluster& cl = fleet.ClusterByName(cname);
    std::size_t cursor = 0;
    int failures = 0;
    while (cl.Utilization(ResourceKind::kCpu) < targets[c] &&
           failures < 32) {
      const std::size_t t = local_teams[cursor];
      cursor = (cursor + 1) % local_teams.size();
      cluster::Job job;
      job.id = next_job++;
      job.team = drafts[t].profile.name;
      const double task_cpu = rng.Uniform(0.5, 4.0);
      job.shape = cluster::TaskShape{
          task_cpu, task_cpu * rng.Uniform(2.0, 6.0),
          rng.Uniform(0.05, 1.2)};
      job.tasks = static_cast<int>(rng.UniformInt(4, 40));
      if (fleet.AddJob(cname, job)) {
        footprints[t] += job.TotalDemand();
      } else {
        ++failures;
      }
    }
  }

  World world{std::move(fleet), {}, {}, std::move(targets)};
  world.fixed_prices = world.fleet.CostVector();

  for (std::size_t t = 0; t < drafts.size(); ++t) {
    TeamProfile profile = std::move(drafts[t].profile);
    profile.footprint = footprints[t];
    if (profile.footprint.cpu < 1.0) {
      // Teams that drew no jobs still participate with a seed footprint.
      profile.footprint = cluster::TaskShape{8.0, 32.0, 1.0};
    }
    // Relocation cost: heavy-tailed, proportional to footprint value —
    // big entangled services are expensive to move (§V.B).
    const double footprint_value =
        profile.footprint.cpu * kUnitCosts.cpu +
        profile.footprint.ram_gb * kUnitCosts.ram_gb +
        profile.footprint.disk_tb * kUnitCosts.disk_tb;
    RandomStream team_rng(drafts[t].seed);
    profile.relocation_cost =
        footprint_value * 0.05 * team_rng.Pareto(1.0, 2.5);
    world.agents.emplace_back(std::move(profile), world.fixed_prices,
                              drafts[t].seed);
  }
  return world;
}

}  // namespace pm::agents
