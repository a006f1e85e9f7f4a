// Benchmark driver. Usage (normally through perfbench/run.py):
//
//   p3gm_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --out-dir DIR [--tiny]
//   p3gm_perfbench --negative-controls
//
// Prints progress on stderr and, as the last stdout line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones.

#include <cstdio>
#include <string>

#include "common.h"
#include "obs/observability.h"
#include "util/string_utils.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: p3gm_perfbench --workload "
               "train_image|serve_bulk --seed N "
               "--seconds S --trace 0|1 --out-dir DIR [--tiny]\n"
               "       p3gm_perfbench --negative-controls\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace p3gm;
  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--negative-controls") {
      const int missed = perfbench::ServeNegativeControls();
      std::printf("negative controls: %s\n", missed == 0 ? "pass" : "FAIL");
      return missed == 0 ? 0 : 1;
    }
    if (arg == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    std::uint64_t v = 0;
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed" && util::ParseUint64(value, 0, ~0ULL, &v)) {
      args.seed = v;
    } else if (arg == "--seconds" && util::ParseUint64(value, 1, 600, &v)) {
      args.seconds = static_cast<double>(v);
    } else if (arg == "--trace" && util::ParseUint64(value, 0, 1, &v)) {
      args.trace = v == 1;
    } else if (arg == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage();
    }
  }
  const bool train = perfbench::IsTrainWorkload(args.workload);
  if ((!train && !perfbench::IsServeWorkload(args.workload)) ||
      args.out_dir.empty()) {
    return Usage();
  }

  // Observability stays off except inside a traced run's traced section,
  // as for a default user. Each workload pins the pool's thread count.
  obs::SetEnabled(false);

  perfbench::RunResult result;
  if (train) {
    perfbench::RunTrainWorkload(args, &result);
  } else {
    perfbench::RunServeWorkload(args, &result);
  }
  result.Select(args.trace ? perfbench::PerLayerMetrics()
                           : perfbench::EndToEndMetrics());
  std::printf("%s\n", result.ToJson().c_str());
  return 0;
}
