#ifndef P3GM_PERFBENCH_WORKLOADS_H_
#define P3GM_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <string>

#include "common.h"

namespace p3gm {
namespace perfbench {

/// train_image: a DP P3GM Pgm::Fit in process. Untraced
/// runs time whole fits; traced runs add one fit replayed phase by phase
/// through the library's public calls (see README.md).
bool IsTrainWorkload(const std::string& name);
void RunTrainWorkload(const RunArgs& args, RunResult* result);

/// serve_bulk: an in-process serve::Server driven over loopback sockets
/// by a one-thread closed-loop load generator.
bool IsServeWorkload(const std::string& name);
void RunServeWorkload(const RunArgs& args, RunResult* result);

/// Shape a sample response must have to pass the output check.
struct ResponseShape {
  std::size_t n = 0;
  std::size_t feature_dim = 0;
  std::size_t num_classes = 0;
};

/// True iff (`status`, `body`) is a 200 /v1/sample answer with valid
/// JSON, exactly shape.n rows of shape.feature_dim values in [0, 1], and
/// shape.n labels in [0, num_classes).
bool ValidSampleResponse(int status, const std::string& body,
                         const ResponseShape& shape);

/// Negative controls for the serve output checks: a wrong-shape response
/// and a corrupted seeded body must each be counted as failed. Returns
/// the number of controls that did NOT fail as they should (0 = pass).
int ServeNegativeControls();

}  // namespace perfbench
}  // namespace p3gm

#endif  // P3GM_PERFBENCH_WORKLOADS_H_
