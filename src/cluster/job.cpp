#include "cluster/job.h"

#include "common/check.h"

namespace pm::cluster {

double TaskShape::Of(ResourceKind kind) const {
  switch (kind) {
    case ResourceKind::kCpu:
      return cpu;
    case ResourceKind::kRam:
      return ram_gb;
    case ResourceKind::kDisk:
      return disk_tb;
  }
  PM_CHECK_MSG(false, "unknown resource kind");
  return 0.0;
}

double& TaskShape::Of(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::kCpu:
      return cpu;
    case ResourceKind::kRam:
      return ram_gb;
    case ResourceKind::kDisk:
      return disk_tb;
  }
  PM_CHECK_MSG(false, "unknown resource kind");
  return cpu;
}

TaskShape& TaskShape::operator+=(const TaskShape& other) {
  cpu += other.cpu;
  ram_gb += other.ram_gb;
  disk_tb += other.disk_tb;
  return *this;
}

TaskShape& TaskShape::operator-=(const TaskShape& other) {
  cpu -= other.cpu;
  ram_gb -= other.ram_gb;
  disk_tb -= other.disk_tb;
  return *this;
}

}  // namespace pm::cluster
