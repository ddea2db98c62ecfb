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
//
// PlaceTasks keeps the candidates in a max-heap of (FillAfter, index)
// over the machines that pass CanFit, built once per call. Each task pops
// the top, places there, and pushes that machine back with its new fill
// if it still fits. A call costs O(machines + tasks · log machines), and
// every pick equals that of a full best-fit scan over the machines
// (PlacementPropertyTest.MatchesLinearBestFitScan), because:
//  * CanFit and FillAfter read only the machine's own usage and the
//    call's one shape, so placing a task changes no other machine's key;
//  * the heap breaks fill ties on the lower index, so when a task has no
//    demand in the kind that sets the fill (the pick's fill is unchanged)
//    the next task still goes to the lowest-index machine of that fill.
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
/// Complete() and call UndoPlacement on failure. Every component of
/// `shape` must be finite and non-negative.
PlacementResult PlaceTasks(std::vector<Machine>& machines,
                           const TaskShape& shape, int count);

/// Reverts a placement previously returned by PlaceTasks with the same
/// shape.
void UndoPlacement(std::vector<Machine>& machines, const TaskShape& shape,
                   const PlacementResult& placement);

}  // namespace pm::cluster
