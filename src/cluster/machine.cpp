#include "cluster/machine.h"

#include <algorithm>

#include "common/check.h"

namespace pm::cluster {
namespace {

// Placement tolerance: one part in 1e9 of the dimension's capacity.
constexpr double kFitEps = 1e-9;

}  // namespace

Machine::Machine(TaskShape capacity) : capacity_(capacity) {
  PM_CHECK_MSG(capacity.cpu >= 0 && capacity.ram_gb >= 0 &&
                   capacity.disk_tb >= 0,
               "machine capacity must be non-negative");
}

bool Machine::CanFit(const TaskShape& shape) const {
  const TaskShape free = Free();
  return shape.cpu <= free.cpu + kFitEps * capacity_.cpu &&
         shape.ram_gb <= free.ram_gb + kFitEps * capacity_.ram_gb &&
         shape.disk_tb <= free.disk_tb + kFitEps * capacity_.disk_tb;
}

void Machine::Place(const TaskShape& shape) {
  PM_CHECK_MSG(CanFit(shape), "Place without CanFit");
  used_ += shape;
  // Clamp accumulated float error so used never exceeds capacity.
  used_.cpu = std::min(used_.cpu, capacity_.cpu);
  used_.ram_gb = std::min(used_.ram_gb, capacity_.ram_gb);
  used_.disk_tb = std::min(used_.disk_tb, capacity_.disk_tb);
}

void Machine::Remove(const TaskShape& shape) {
  used_ -= shape;
  PM_CHECK_MSG(used_.cpu >= -kFitEps * (capacity_.cpu + 1.0) &&
                   used_.ram_gb >= -kFitEps * (capacity_.ram_gb + 1.0) &&
                   used_.disk_tb >= -kFitEps * (capacity_.disk_tb + 1.0),
               "Remove of a task that was never placed");
  used_.cpu = std::max(used_.cpu, 0.0);
  used_.ram_gb = std::max(used_.ram_gb, 0.0);
  used_.disk_tb = std::max(used_.disk_tb, 0.0);
}

double Machine::FillAfter(const TaskShape& shape) const {
  double fill = 0.0;
  for (ResourceKind kind : kAllResourceKinds) {
    const double cap = capacity_.Of(kind);
    if (cap <= 0.0) continue;
    fill = std::max(fill, (used_.Of(kind) + shape.Of(kind)) / cap);
  }
  return fill;
}

}  // namespace pm::cluster
