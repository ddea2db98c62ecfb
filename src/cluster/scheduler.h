// planetmarket: task-to-machine placement (best-fit bin packing).
//
// The market's provisioning layer sits above a per-cluster scheduler
// ("these allocation limits are then mapped into the low-level scheduling
// algorithms used to actually assign jobs to units of physical hardware",
// §I). This module implements online best-fit bin packing: each task goes
// to the machine left tightest (largest max-dimension fill) after placing
// it, ties going to the lowest index. The fleet uses it to answer "does
// this job actually fit in that cluster?", which is what makes
// utilization ψ(r) a real, packing-constrained number rather than a
// bookkeeping fiction.
#pragma once

#include <vector>

#include "cluster/machine.h"

namespace pm::cluster {

/// Result of placing a multi-task job onto a machine set.
struct PlacementResult {
  /// tasks_placed[i] tasks went onto machine i. Same size as the machine
  /// vector passed in.
  std::vector<int> tasks_placed;

  /// Tasks that could not be placed anywhere.
  int tasks_failed = 0;

  bool Complete() const { return tasks_failed == 0; }

  int TotalPlaced() const;
};

/// Places `count` tasks of `shape` one at a time by best fit, mutating
/// `machines`. Returns where each task went. Placement is all-or-nothing
/// per *task* but not per job: callers wanting atomic job placement check
/// Complete() and call UndoPlacement on failure.
PlacementResult PlaceTasks(std::vector<Machine>& machines,
                           const TaskShape& shape, int count);

/// Reverts a placement previously returned by PlaceTasks with the same
/// shape.
void UndoPlacement(std::vector<Machine>& machines, const TaskShape& shape,
                   const PlacementResult& placement);

}  // namespace pm::cluster
