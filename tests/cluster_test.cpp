// Tests for pm::cluster: machines, best-fit placement, clusters, fleet.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <random>

#include "cluster/fleet.h"
#include "common/check.h"
#include "exchange/market.h"

namespace pm::cluster {
namespace {

const TaskShape kMachine{16.0, 64.0, 8.0};

// ---------------------------------------------------------------- shapes --

TEST(TaskShapeTest, ComponentAccess) {
  TaskShape s{1.0, 2.0, 3.0};
  EXPECT_EQ(s.Of(ResourceKind::kCpu), 1.0);
  EXPECT_EQ(s.Of(ResourceKind::kRam), 2.0);
  EXPECT_EQ(s.Of(ResourceKind::kDisk), 3.0);
  s.Of(ResourceKind::kRam) = 9.0;
  EXPECT_EQ(s.ram_gb, 9.0);
}

TEST(TaskShapeTest, UnknownKindFailsLoudly) {
  TaskShape s{1.0, 2.0, 3.0};
  const auto bogus = static_cast<ResourceKind>(kNumResourceKinds);
  EXPECT_THROW(static_cast<const TaskShape&>(s).Of(bogus), CheckFailure);
  EXPECT_THROW(s.Of(bogus), CheckFailure);
}

TEST(TaskShapeTest, ArithmeticAndScaling) {
  const TaskShape a{1.0, 2.0, 3.0};
  const TaskShape b{0.5, 0.5, 0.5};
  EXPECT_EQ((a + b).cpu, 1.5);
  EXPECT_EQ((a - b).disk_tb, 2.5);
  EXPECT_EQ((a * 2.0).ram_gb, 4.0);
}

TEST(JobTest, TotalDemandScalesByTasks) {
  Job job;
  job.shape = {2.0, 8.0, 1.0};
  job.tasks = 5;
  EXPECT_EQ(job.TotalDemand().cpu, 10.0);
  EXPECT_EQ(job.TotalDemand().ram_gb, 40.0);
}

// --------------------------------------------------------------- machines --

TEST(MachineTest, PlaceAndRemoveTracksUsage) {
  Machine m(kMachine);
  const TaskShape task{4.0, 16.0, 2.0};
  EXPECT_TRUE(m.CanFit(task));
  m.Place(task);
  EXPECT_EQ(m.used().cpu, 4.0);
  EXPECT_EQ(m.Free().cpu, 12.0);
  m.Remove(task);
  EXPECT_EQ(m.used().cpu, 0.0);
}

TEST(MachineTest, CannotOverfill) {
  Machine m(kMachine);
  const TaskShape task{10.0, 10.0, 1.0};
  m.Place(task);
  EXPECT_FALSE(m.CanFit(task));  // 20 > 16 cpu.
  EXPECT_THROW(m.Place(task), CheckFailure);
}

TEST(MachineTest, FitIsPerDimension) {
  Machine m(kMachine);
  m.Place({1.0, 60.0, 1.0});
  EXPECT_FALSE(m.CanFit({1.0, 8.0, 1.0}));  // RAM binds.
  EXPECT_TRUE(m.CanFit({1.0, 4.0, 1.0}));
}

TEST(MachineTest, RemoveUnplacedThrows) {
  Machine m(kMachine);
  EXPECT_THROW(m.Remove({4.0, 4.0, 4.0}), CheckFailure);
}

TEST(MachineTest, FillAfterIsMaxDimension) {
  Machine m(kMachine);
  EXPECT_DOUBLE_EQ(m.FillAfter({8.0, 16.0, 1.0}), 0.5);  // cpu 8/16.
}

// -------------------------------------------------------------- scheduler --

std::vector<Machine> ThreeMachines() {
  return {Machine(kMachine), Machine(kMachine), Machine(kMachine)};
}

TEST(SchedulerTest, BestFitPacksTightly) {
  auto machines = ThreeMachines();
  machines[1].Place({12.0, 12.0, 1.0});  // Machine 1 is nearly full.
  const PlacementResult r = PlaceTasks(machines, {4.0, 4.0, 1.0}, 1);
  EXPECT_TRUE(r.Complete());
  EXPECT_EQ(r.tasks_placed[1], 1);  // Fills the tight machine first.
}

TEST(SchedulerTest, ReportsFailuresWhenFull) {
  std::vector<Machine> machines = {Machine({4.0, 4.0, 4.0})};
  const PlacementResult r = PlaceTasks(machines, {3.0, 1.0, 1.0}, 3);
  EXPECT_FALSE(r.Complete());
  EXPECT_EQ(std::accumulate(r.tasks_placed.begin(), r.tasks_placed.end(), 0),
            1);
  EXPECT_EQ(r.tasks_failed, 2);
}

TEST(SchedulerTest, UndoRestoresState) {
  auto machines = ThreeMachines();
  const TaskShape task{4.0, 4.0, 1.0};
  const PlacementResult r = PlaceTasks(machines, task, 5);
  UndoPlacement(machines, task, r);
  for (const Machine& m : machines) {
    EXPECT_EQ(m.used().cpu, 0.0);
  }
}

TEST(SchedulerTest, RejectsNegativeOrNonFiniteShape) {
  // A negative component would pass CanFit and then drive used() below
  // zero, minting capacity; a NaN one would fail every machine silently.
  auto machines = ThreeMachines();
  machines[0].Place({1.0, 1.0, 1.0});
  const std::vector<Machine> before = machines;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const TaskShape& shape :
       {TaskShape{-1.0, 1.0, 1.0}, TaskShape{1.0, -0.5, 1.0},
        TaskShape{1.0, 1.0, nan}, TaskShape{inf, 1.0, 1.0}}) {
    EXPECT_THROW(PlaceTasks(machines, shape, 1), CheckFailure);
  }
  for (std::size_t i = 0; i < machines.size(); ++i) {
    EXPECT_EQ(machines[i].used(), before[i].used());
  }
}

// ---------------------------------------------------------------- cluster --

Job MakeJob(JobId id, const std::string& team, int tasks = 4) {
  Job job;
  job.id = id;
  job.team = team;
  job.shape = {2.0, 8.0, 1.0};
  job.tasks = tasks;
  return job;
}

TEST(ClusterTest, HomogeneousConstruction) {
  const Cluster c = Cluster::Homogeneous("c1", 5, kMachine);
  EXPECT_EQ(c.NumMachines(), 5u);
  EXPECT_EQ(c.Capacity(ResourceKind::kCpu), 80.0);
  EXPECT_EQ(c.Used(ResourceKind::kCpu), 0.0);
}

TEST(ClusterTest, AddJobIsAtomic) {
  Cluster c = Cluster::Homogeneous("c1", 1, {8.0, 32.0, 4.0});
  // 5 tasks of 2 cpu = 10 cpu > 8: must fail and leave no residue.
  EXPECT_FALSE(c.AddJob(MakeJob(1, "t", 5)));
  EXPECT_EQ(c.Used(ResourceKind::kCpu), 0.0);
  EXPECT_FALSE(c.HasJob(1));
}

TEST(ClusterTest, AddRemoveRoundTrip) {
  Cluster c = Cluster::Homogeneous("c1", 4, kMachine);
  EXPECT_TRUE(c.AddJob(MakeJob(7, "team-a")));
  EXPECT_TRUE(c.HasJob(7));
  EXPECT_EQ(c.Used(ResourceKind::kCpu), 8.0);
  const auto job = c.RemoveJob(7);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->team, "team-a");
  EXPECT_EQ(c.Used(ResourceKind::kCpu), 0.0);
}

TEST(ClusterTest, RemoveUnknownJobReturnsNullopt) {
  Cluster c = Cluster::Homogeneous("c1", 1, kMachine);
  EXPECT_FALSE(c.RemoveJob(42).has_value());
}

TEST(ClusterTest, DuplicateJobIdThrows) {
  Cluster c = Cluster::Homogeneous("c1", 4, kMachine);
  ASSERT_TRUE(c.AddJob(MakeJob(1, "a")));
  EXPECT_THROW(c.AddJob(MakeJob(1, "b")), CheckFailure);
}

std::vector<JobId> IdsOf(const Cluster& c) {
  std::vector<JobId> ids;
  for (const PlacedJob& placed : c.jobs()) ids.push_back(placed.job.id);
  return ids;
}

TEST(ClusterTest, JobsInInsertionOrder) {
  Cluster c = Cluster::Homogeneous("c1", 8, kMachine);
  for (JobId id : {5, 2, 9}) {
    ASSERT_TRUE(c.AddJob(MakeJob(id, "t", 1)));
  }
  EXPECT_EQ(IdsOf(c), (std::vector<JobId>{5, 2, 9}));
}

TEST(ClusterTest, JobListMatchesReferenceModel) {
  // Seeded adds, removals at the front, middle and back, renumbers and
  // restores of a copy, each checked against a plain id list: the job
  // list keeps insertion order, every lookup lands on its own job, and
  // the cached usage equals a fresh machine sum.
  Cluster c = Cluster::Homogeneous("c1", 6, kMachine);
  std::vector<JobId> model;
  std::vector<JobId> gone;  // Removed, renumbered away or never placed.
  std::mt19937_64 rng(1969);
  JobId next_id = 1;
  int removals = 0;
  int renumbers = 0;
  int restores = 0;
  for (int step = 0; step < 400; ++step) {
    const int op = static_cast<int>(rng() % 8);
    if (op <= 3 || model.size() < 3) {
      const JobId id = next_id++;
      if (c.AddJob(MakeJob(id, "t", 1 + static_cast<int>(rng() % 3)))) {
        model.push_back(id);
      } else {
        gone.push_back(id);
      }
    } else if (op <= 5) {
      const std::size_t positions[] = {0, model.size() / 2, model.size() - 1};
      const std::size_t at = positions[rng() % 3];
      const std::optional<Job> removed = c.RemoveJob(model[at]);
      ASSERT_TRUE(removed.has_value());
      EXPECT_EQ(removed->id, model[at]);
      gone.push_back(model[at]);
      model.erase(model.begin() + static_cast<std::ptrdiff_t>(at));
      ++removals;
    } else if (op == 6) {
      const std::size_t at = rng() % model.size();
      const JobId to = next_id++;
      c.RenumberJob(model[at], to);
      gone.push_back(model[at]);
      model[at] = to;
      ++renumbers;
    } else {
      Cluster copy(c.name(), c.machines());
      copy.RestoreJobs(c.jobs());
      c = std::move(copy);
      ++restores;
    }
    ASSERT_EQ(IdsOf(c), model) << "step " << step;
    for (JobId id : model) {
      ASSERT_TRUE(c.HasJob(id)) << "step " << step;
      const Job* job = c.FindJob(id);
      ASSERT_NE(job, nullptr) << "step " << step;
      ASSERT_EQ(job->id, id) << "step " << step;
    }
    for (JobId id : gone) {
      ASSERT_FALSE(c.HasJob(id)) << "step " << step;
      ASSERT_EQ(c.FindJob(id), nullptr) << "step " << step;
    }
    for (ResourceKind kind : kAllResourceKinds) {
      double used = 0.0;
      for (const Machine& m : c.machines()) used += m.used().Of(kind);
      ASSERT_EQ(c.Used(kind), used) << "step " << step;
    }
  }
  EXPECT_GT(removals, 50);
  EXPECT_GT(renumbers, 20);
  EXPECT_GT(restores, 20);
}

TEST(ClusterTest, UtilizationAggregatesMachines) {
  Cluster c = Cluster::Homogeneous("c1", 2, kMachine);
  ASSERT_TRUE(c.AddJob(MakeJob(1, "t", 4)));
  // 8 cpu over 32 capacity.
  EXPECT_DOUBLE_EQ(c.Utilization(ResourceKind::kCpu), 0.25);
  EXPECT_DOUBLE_EQ(c.MaxUtilization(),
                   c.Utilization(ResourceKind::kRam));  // RAM dominates.
}

/// Every cluster's cached totals equal a fresh machine-order sum, exactly.
void ExpectTotalsEqualMachineSums(const Fleet& fleet) {
  for (const std::string& name : fleet.ClusterNames()) {
    const Cluster& c = fleet.ClusterByName(name);
    for (ResourceKind kind : kAllResourceKinds) {
      double capacity = 0.0;
      double used = 0.0;
      for (const Machine& m : c.machines()) {
        capacity += m.capacity().Of(kind);
        used += m.used().Of(kind);
      }
      EXPECT_EQ(c.Capacity(kind), capacity) << name;
      EXPECT_EQ(c.Used(kind), used) << name;
    }
  }
}

TEST(ClusterTest, CachedTotalsEqualMachineSums) {
  // Fractional shapes on mixed machines, so float sums are not exact and
  // an incrementally maintained total would drift from the machine sum.
  std::vector<Cluster> clusters;
  for (const char* name : {"x", "y", "z"}) {
    std::vector<Machine> machines;
    for (int m = 0; m < 5; ++m) {
      machines.emplace_back(TaskShape{7.3 + m * 1.1, 29.7 + m, 3.3 + m});
    }
    clusters.emplace_back(name, std::move(machines));
  }
  Fleet fleet(std::move(clusters), TaskShape{10.0, 1.5, 0.8});
  std::vector<agents::TeamAgent> no_agents;
  exchange::Market market(&fleet, &no_agents, fleet.CostVector(),
                          exchange::MarketConfig{});
  const std::vector<std::string> names = fleet.ClusterNames();
  std::mt19937_64 rng(20090425);
  std::vector<JobId> live;
  JobId next_id = 1;
  int failed_adds = 0;
  for (int step = 0; step < 400; ++step) {
    if (step == 200) {
      market.Restore(market.Snapshot());
      ExpectTotalsEqualMachineSums(fleet);
    }
    const std::string& cluster = names[rng() % names.size()];
    const int op = static_cast<int>(rng() % 4);
    if (op <= 1 || live.empty()) {
      Job job;
      job.id = next_id++;
      job.team = "t";
      job.shape = {0.1 + 0.37 * static_cast<double>(rng() % 9),
                   0.3 + 1.13 * static_cast<double>(rng() % 9),
                   0.07 * static_cast<double>(1 + rng() % 9)};
      job.tasks = 1 + static_cast<int>(rng() % 6);
      if (fleet.AddJob(cluster, job)) {
        live.push_back(job.id);
      } else {
        ++failed_adds;
      }
    } else {
      const std::size_t pick = rng() % live.size();
      ASSERT_TRUE(fleet.RemoveJob(live[pick]).has_value());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    ExpectTotalsEqualMachineSums(fleet);
  }
  // The sequence must exercise the undo path, not just clean placements.
  EXPECT_GT(failed_adds, 0);
}

// ------------------------------------------------------------------ fleet --

Fleet MakeFleet() {
  std::vector<Cluster> clusters;
  clusters.push_back(Cluster::Homogeneous("a", 2, kMachine));
  clusters.push_back(Cluster::Homogeneous("b", 4, kMachine));
  return Fleet(std::move(clusters), TaskShape{10.0, 1.5, 0.8});
}

TEST(FleetTest, RegistryHasPoolPerClusterKind) {
  const Fleet fleet = MakeFleet();
  EXPECT_EQ(fleet.NumPools(), 6u);
  EXPECT_EQ(fleet.ClusterNames(), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(
      fleet.registry().Find(PoolKey{"b", ResourceKind::kDisk}).has_value());
}

TEST(FleetTest, DuplicateClusterNamesThrow) {
  std::vector<Cluster> clusters;
  clusters.push_back(Cluster::Homogeneous("x", 1, kMachine));
  clusters.push_back(Cluster::Homogeneous("x", 1, kMachine));
  EXPECT_THROW(Fleet(std::move(clusters), TaskShape{1, 1, 1}),
               CheckFailure);
}

TEST(FleetTest, FromStateRejectsDuplicateClusterNames) {
  std::vector<Cluster> clusters;
  clusters.push_back(Cluster::Homogeneous("x", 1, kMachine));
  clusters.push_back(Cluster::Homogeneous("x", 1, kMachine));
  const std::vector<PoolKey> order = {{"x", ResourceKind::kCpu},
                                      {"x", ResourceKind::kRam},
                                      {"x", ResourceKind::kDisk}};
  EXPECT_THROW(
      Fleet::FromState(std::move(clusters), order, TaskShape{1, 1, 1}),
      CheckFailure);
}

/// The registry's cluster table agrees with its interned keys: clusters
/// in first-intern order, and every pool reachable through PoolOf.
void ExpectTableMatchesKeys(const PoolRegistry& registry) {
  std::vector<std::string> first_seen;
  for (PoolId id = 0; id < registry.size(); ++id) {
    const PoolKey& key = registry.KeyOf(id);
    if (std::find(first_seen.begin(), first_seen.end(), key.cluster) ==
        first_seen.end()) {
      first_seen.push_back(key.cluster);
    }
    const auto cluster = registry.FindCluster(key.cluster);
    ASSERT_TRUE(cluster.has_value()) << key.cluster;
    EXPECT_EQ(registry.PoolOf(*cluster, key.kind), id);
  }
  EXPECT_EQ(registry.Clusters(), first_seen);
}

TEST(FleetTest, RegistryTableAfterConstruction) {
  const Fleet fleet = MakeFleet();
  const PoolRegistry& registry = fleet.registry();
  ExpectTableMatchesKeys(registry);
  EXPECT_EQ(registry.Clusters(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(registry.PoolOf(1, ResourceKind::kCpu), 3u);
}

TEST(FleetTest, RegistryTableAfterFromState) {
  // Pools interleaved across clusters, and "gone" migrated away: its
  // pools outlive it and read zero capacity.
  std::vector<Cluster> clusters;
  clusters.push_back(Cluster::Homogeneous("b", 1, kMachine));
  clusters.push_back(Cluster::Homogeneous("a", 2, kMachine));
  const std::vector<PoolKey> order = {
      {"a", ResourceKind::kCpu},    {"gone", ResourceKind::kRam},
      {"b", ResourceKind::kCpu},    {"a", ResourceKind::kRam},
      {"gone", ResourceKind::kCpu}, {"b", ResourceKind::kRam},
      {"a", ResourceKind::kDisk},   {"b", ResourceKind::kDisk},
      {"gone", ResourceKind::kDisk}};
  const Fleet fleet =
      Fleet::FromState(std::move(clusters), order, TaskShape{1, 1, 1});
  const PoolRegistry& registry = fleet.registry();
  ExpectTableMatchesKeys(registry);
  EXPECT_EQ(registry.Clusters(),
            (std::vector<std::string>{"a", "gone", "b"}));
  EXPECT_EQ(registry.PoolOf(0, ResourceKind::kRam), 3u);
  EXPECT_EQ(registry.PoolOf(2, ResourceKind::kDisk), 7u);
  const std::vector<double> capacity = fleet.CapacityVector();
  EXPECT_EQ(capacity[registry.PoolOf(0, ResourceKind::kCpu)], 32.0);
  EXPECT_EQ(capacity[registry.PoolOf(2, ResourceKind::kCpu)], 16.0);
  for (ResourceKind kind : kAllResourceKinds) {
    EXPECT_EQ(capacity[registry.PoolOf(1, kind)], 0.0);
  }
}

TEST(FleetTest, RegistryTableAfterAdoptCluster) {
  Fleet fleet = MakeFleet();
  Cluster a = fleet.ExtractCluster("a");
  fleet.AdoptCluster(Cluster::Homogeneous("c", 1, kMachine));
  const PoolRegistry& registry = fleet.registry();
  ExpectTableMatchesKeys(registry);
  EXPECT_EQ(registry.Clusters(), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(registry.PoolOf(2, ResourceKind::kCpu), 6u);
  // Re-adopting a cluster that lived here keeps its original pools.
  fleet.AdoptCluster(std::move(a));
  ExpectTableMatchesKeys(registry);
  EXPECT_EQ(registry.size(), 9u);
  EXPECT_EQ(registry.PoolOf(0, ResourceKind::kDisk), 2u);
  EXPECT_EQ(fleet.CapacityVector()[2], 16.0);
}

TEST(FleetTest, VectorsAreConsistent) {
  Fleet fleet = MakeFleet();
  ASSERT_TRUE(fleet.AddJob("a", MakeJob(1, "t", 4)));
  const auto cap = fleet.CapacityVector();
  const auto used = fleet.UsedVector();
  const auto free = fleet.FreeVector();
  const auto util = fleet.UtilizationVector();
  for (std::size_t r = 0; r < cap.size(); ++r) {
    EXPECT_NEAR(free[r], cap[r] - used[r], 1e-9);
    if (cap[r] > 0) EXPECT_NEAR(util[r], used[r] / cap[r], 1e-12);
  }
}

TEST(FleetTest, CostVectorFollowsKind) {
  const Fleet fleet = MakeFleet();
  const auto costs = fleet.CostVector();
  const auto cpu_a = fleet.registry().Find(PoolKey{"a", ResourceKind::kCpu});
  const auto disk_b =
      fleet.registry().Find(PoolKey{"b", ResourceKind::kDisk});
  EXPECT_DOUBLE_EQ(costs[*cpu_a], 10.0);
  EXPECT_DOUBLE_EQ(costs[*disk_b], 0.8);
}

TEST(FleetTest, RemoveJobSearchesAllClusters) {
  Fleet fleet = MakeFleet();
  ASSERT_TRUE(fleet.AddJob("b", MakeJob(3, "t", 2)));
  const auto removed = fleet.RemoveJob(3);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(fleet.LocateJob(3), "");
}

TEST(FleetTest, AllJobsListsLocations) {
  Fleet fleet = MakeFleet();
  ASSERT_TRUE(fleet.AddJob("a", MakeJob(1, "t", 1)));
  ASSERT_TRUE(fleet.AddJob("b", MakeJob(2, "t", 1)));
  const auto jobs = fleet.AllJobs();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].cluster, "a");
  EXPECT_EQ(jobs[1].cluster, "b");
}

TEST(FleetTest, FleetUtilizationIsWeightedAverage) {
  Fleet fleet = MakeFleet();
  ASSERT_TRUE(fleet.AddJob("a", MakeJob(1, "t", 4)));  // 8 cpu of 96 total.
  EXPECT_NEAR(fleet.FleetUtilization(ResourceKind::kCpu), 8.0 / 96.0,
              1e-12);
}

TEST(FleetTest, UtilizationPercentileRanksClusters) {
  Fleet fleet = MakeFleet();
  ASSERT_TRUE(fleet.AddJob("a", MakeJob(1, "t", 8)));
  // Cluster a is busier than b: a should rank above b.
  const double pa = fleet.UtilizationPercentile("a", ResourceKind::kCpu);
  const double pb = fleet.UtilizationPercentile("b", ResourceKind::kCpu);
  EXPECT_GT(pa, pb);
  EXPECT_THROW(fleet.UtilizationPercentile("zz", ResourceKind::kCpu),
               CheckFailure);
}

TEST(FleetTest, PercentileTableMatchesPerClusterLookup) {
  // Six clusters, three pairs of them loaded identically, so every rank
  // carries ties; "e" stays empty and ties "f" at zero on every kind.
  std::vector<Cluster> clusters;
  for (const char* name : {"a", "b", "c", "d", "e", "f"}) {
    clusters.push_back(Cluster::Homogeneous(name, 2, kMachine));
  }
  Fleet fleet(std::move(clusters), TaskShape{10.0, 1.5, 0.8});
  JobId id = 1;
  for (const auto& [name, tasks] :
       std::vector<std::pair<std::string, int>>{
           {"a", 6}, {"b", 6}, {"c", 2}, {"d", 2}}) {
    ASSERT_TRUE(fleet.AddJob(name, MakeJob(id++, "t", tasks)));
  }
  const auto expect_table_matches = [&](const Fleet& f) {
    const std::vector<double> table = f.UtilizationPercentiles();
    const PoolRegistry& registry = f.registry();
    ASSERT_EQ(table.size(), registry.size());
    for (PoolId pool = 0; pool < registry.size(); ++pool) {
      const PoolKey& key = registry.KeyOf(pool);
      if (!f.HasCluster(key.cluster)) continue;
      EXPECT_EQ(table[pool], f.UtilizationPercentile(key.cluster, key.kind))
          << ToString(key);
    }
  };
  expect_table_matches(fleet);
  EXPECT_EQ(fleet.UtilizationPercentiles()[*fleet.registry().Find(
                PoolKey{"a", ResourceKind::kCpu})],
            100.0 * (4 + 0.5 * 2) / 6);

  // An extracted cluster's pools stay interned but read as dead, and the
  // live ranks re-form over the clusters that remain.
  fleet.ExtractCluster("c");
  expect_table_matches(fleet);
  const std::vector<double> table = fleet.UtilizationPercentiles();
  const auto c = fleet.registry().FindCluster("c");
  ASSERT_TRUE(c.has_value());
  for (ResourceKind kind : kAllResourceKinds) {
    const double dead = table[fleet.registry().PoolOf(*c, kind)];
    EXPECT_EQ(dead, kDeadPoolPercentile);
    EXPECT_TRUE(dead < 0.0 || dead > 100.0) << "reads as a real rank";
  }
}

}  // namespace
}  // namespace pm::cluster
