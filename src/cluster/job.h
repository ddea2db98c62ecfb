// planetmarket: jobs and task shapes.
//
// The market allocates *quota* (aggregate resources); the cluster substrate
// beneath it runs jobs against that quota. A job is a replicated service:
// `tasks` identical tasks, each demanding a fixed shape of CPU/RAM/disk,
// mirroring the task model of cluster managers in the paper's ecosystem.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"

namespace pm::cluster {

/// Unique job identifier within a fleet.
using JobId = std::uint64_t;

/// Per-task resource demand (also used for machine capacities).
struct TaskShape {
  double cpu = 0.0;      // cores
  double ram_gb = 0.0;   // gigabytes
  double disk_tb = 0.0;  // terabytes

  /// Component lookup by resource kind.
  double Of(ResourceKind kind) const;

  /// Mutable component lookup.
  double& Of(ResourceKind kind);

  TaskShape& operator+=(const TaskShape& other) {
    cpu += other.cpu;
    ram_gb += other.ram_gb;
    disk_tb += other.disk_tb;
    return *this;
  }
  TaskShape& operator-=(const TaskShape& other) {
    cpu -= other.cpu;
    ram_gb -= other.ram_gb;
    disk_tb -= other.disk_tb;
    return *this;
  }
  friend TaskShape operator+(TaskShape a, const TaskShape& b) {
    return a += b;
  }
  friend TaskShape operator-(TaskShape a, const TaskShape& b) {
    return a -= b;
  }
  friend TaskShape operator*(TaskShape a, double k) {
    a.cpu *= k;
    a.ram_gb *= k;
    a.disk_tb *= k;
    return a;
  }

  bool operator==(const TaskShape& other) const = default;
};

/// The failure path of TaskShape::Of: throws CheckFailure for a kind
/// outside kAllResourceKinds. Out of line so the accessor stays small.
[[noreturn]] void UnknownResourceKind(ResourceKind kind);

// Of sits on the placement and bidding hot paths (every candidate
// machine, every believed cluster cost), so it is defined here to inline.
inline double TaskShape::Of(ResourceKind kind) const {
  switch (kind) {
    case ResourceKind::kCpu:
      return cpu;
    case ResourceKind::kRam:
      return ram_gb;
    case ResourceKind::kDisk:
      return disk_tb;
  }
  UnknownResourceKind(kind);
}

inline double& TaskShape::Of(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::kCpu:
      return cpu;
    case ResourceKind::kRam:
      return ram_gb;
    case ResourceKind::kDisk:
      return disk_tb;
  }
  UnknownResourceKind(kind);
}

/// Component-wise dot product — the §V.B reconfiguration-cost form: a
/// moved shape priced against per-unit cost weights.
inline double Dot(const TaskShape& a, const TaskShape& b) {
  return a.cpu * b.cpu + a.ram_gb * b.ram_gb + a.disk_tb * b.disk_tb;
}

/// Σ components, the unit-count of a shape (used where a scalar size is
/// needed, e.g. benefit gates over mixed-kind capacity).
inline double TotalUnits(const TaskShape& shape) {
  return shape.cpu + shape.ram_gb + shape.disk_tb;
}

/// A replicated job: `tasks` tasks of identical shape, owned by a team.
struct Job {
  JobId id = 0;
  std::string team;
  TaskShape shape;
  int tasks = 0;

  /// Aggregate demand across all tasks.
  TaskShape TotalDemand() const { return shape * tasks; }
};

}  // namespace pm::cluster
