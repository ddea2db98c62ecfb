#include "cluster/scheduler.h"

#include <numeric>

#include "common/check.h"

namespace pm::cluster {

int PlacementResult::TotalPlaced() const {
  return std::accumulate(tasks_placed.begin(), tasks_placed.end(), 0);
}

namespace {

/// Best fit: the machine with the largest fill after placing, the lowest
/// index on a tie; -1 when none fits.
int PickMachine(const std::vector<Machine>& machines, const TaskShape& shape) {
  int best = -1;
  double best_fill = 0.0;
  for (std::size_t i = 0; i < machines.size(); ++i) {
    if (!machines[i].CanFit(shape)) continue;
    const double fill = machines[i].FillAfter(shape);
    if (best < 0 || fill > best_fill) {
      best = static_cast<int>(i);
      best_fill = fill;
    }
  }
  return best;
}

}  // namespace

PlacementResult PlaceTasks(std::vector<Machine>& machines,
                           const TaskShape& shape, int count) {
  PM_CHECK_MSG(count >= 0, "negative task count " << count);
  PlacementResult result;
  result.tasks_placed.assign(machines.size(), 0);
  for (int t = 0; t < count; ++t) {
    const int pick = PickMachine(machines, shape);
    if (pick < 0) {
      result.tasks_failed = count - t;
      break;
    }
    machines[static_cast<std::size_t>(pick)].Place(shape);
    ++result.tasks_placed[static_cast<std::size_t>(pick)];
  }
  return result;
}

void UndoPlacement(std::vector<Machine>& machines, const TaskShape& shape,
                   const PlacementResult& placement) {
  PM_CHECK(placement.tasks_placed.size() == machines.size());
  for (std::size_t i = 0; i < machines.size(); ++i) {
    for (int t = 0; t < placement.tasks_placed[i]; ++t) {
      machines[i].Remove(shape);
    }
  }
}

}  // namespace pm::cluster
