// planetmarket: a single machine with multi-dimensional capacity.
#pragma once

#include <cstdint>

#include "cluster/job.h"

namespace pm::cluster {

/// Index of a machine within its cluster.
using MachineIndex = std::uint32_t;

/// One machine: a capacity shape and the sum of placed task shapes.
/// Placement respects capacity in every dimension; see scheduler.h for the
/// best-fit rule that picks machines.
class Machine {
 public:
  explicit Machine(TaskShape capacity);

  const TaskShape& capacity() const { return capacity_; }
  const TaskShape& used() const { return used_; }

  /// Remaining headroom per dimension.
  TaskShape Free() const { return capacity_ - used_; }

  /// True when a task of `shape` fits in the remaining headroom (with a
  /// small epsilon so that accumulated float error cannot wedge an exact
  /// repack).
  bool CanFit(const TaskShape& shape) const;

  /// Places one task. Precondition: CanFit(shape).
  void Place(const TaskShape& shape);

  /// Removes one previously placed task. Precondition: at least `shape`
  /// is in use in every dimension.
  void Remove(const TaskShape& shape);

  /// Scalar fill metric used by best fit: the maximum utilization
  /// across dimensions after hypothetically placing `shape`.
  double FillAfter(const TaskShape& shape) const;

  /// Checkpoint restore: overwrites the in-use shape with a value saved
  /// from another machine's used(). Bypasses Place so accumulated float
  /// error round-trips bit-exactly; only exchange/snapshot.cpp calls it.
  void RestoreUsed(const TaskShape& used) { used_ = used; }

 private:
  TaskShape capacity_;
  TaskShape used_;
};

}  // namespace pm::cluster
