#include "cluster/job.h"

#include "common/check.h"

namespace pm::cluster {

void UnknownResourceKind(ResourceKind kind) {
  PM_CHECK_MSG(false, "unknown resource kind " << static_cast<int>(kind));
}

}  // namespace pm::cluster
