#include "cluster/scheduler.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/check.h"

namespace pm::cluster {

int PlacementResult::TotalPlaced() const {
  return std::accumulate(tasks_placed.begin(), tasks_placed.end(), 0);
}

namespace {

/// A candidate machine: its fill after one more task, and its index.
using Candidate = std::pair<double, std::size_t>;

/// Heap order: the top is the largest fill, the lowest index on a tie.
bool PicksLater(const Candidate& a, const Candidate& b) {
  return a.first < b.first || (a.first == b.first && a.second > b.second);
}

}  // namespace

PlacementResult PlaceTasks(std::vector<Machine>& machines,
                           const TaskShape& shape, int count) {
  PM_CHECK_MSG(count >= 0, "negative task count " << count);
  for (ResourceKind kind : kAllResourceKinds) {
    const double demand = shape.Of(kind);
    PM_CHECK_MSG(std::isfinite(demand) && demand >= 0.0,
                 "task shape component " << demand
                                         << " is negative or not finite");
  }
  PlacementResult result;
  result.tasks_placed.assign(machines.size(), 0);
  std::vector<Candidate> heap;
  heap.reserve(machines.size());
  for (std::size_t i = 0; i < machines.size(); ++i) {
    if (machines[i].CanFit(shape)) {
      heap.emplace_back(machines[i].FillAfter(shape), i);
    }
  }
  std::make_heap(heap.begin(), heap.end(), PicksLater);
  for (int t = 0; t < count; ++t) {
    if (heap.empty()) {
      result.tasks_failed = count - t;
      break;
    }
    std::pop_heap(heap.begin(), heap.end(), PicksLater);
    const std::size_t pick = heap.back().second;
    machines[pick].Place(shape);
    ++result.tasks_placed[pick];
    if (machines[pick].CanFit(shape)) {
      heap.back().first = machines[pick].FillAfter(shape);
      std::push_heap(heap.begin(), heap.end(), PicksLater);
    } else {
      heap.pop_back();
    }
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
