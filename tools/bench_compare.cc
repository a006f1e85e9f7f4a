// bench_compare — perf-regression gate over two BENCH_*.json files
// produced by `p3gm bench` or the bench_* binaries:
//
//   bench_compare BENCH_seed.json BENCH_candidate.json
//
// Exit codes: 0 = no regression, 1 = gate failed (a median regressed
// beyond both the relative slack and the pooled 95% CI), 2 = usage or
// parse error. The decision rule lives in src/obs/bench/compare.cc; this
// is a thin CLI around it.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/bench/compare.h"
#include "obs/bench/harness.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: bench_compare <baseline.json> <candidate.json> "
               "[options]\n"
               "  --max-regress PCT   relative slack on the median before a\n"
               "                      slowdown can count as a regression\n"
               "                      (default 35, i.e. 35%%)\n"
               "  --strict-missing    fail when a baseline benchmark is\n"
               "                      absent from the candidate\n"
               "  --no-normalize      do not divide out the suite-wide\n"
               "                      machine-drift factor (median of the\n"
               "                      shared median ratios) before\n"
               "                      judging\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string base_path = argv[1];
  const std::string cand_path = argv[2];

  p3gm::obs::bench::CompareOptions options;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--max-regress" && i + 1 < argc) {
      const double pct = std::atof(argv[++i]);
      if (pct < 0.0) {
        std::fprintf(stderr, "error: --max-regress must be >= 0\n");
        return Usage();
      }
      options.min_rel_regress = pct / 100.0;
    } else if (arg == "--strict-missing") {
      options.fail_on_missing = true;
    } else if (arg == "--no-normalize") {
      options.normalize_drift = false;
    } else {
      std::fprintf(stderr, "unknown or malformed flag: %s\n", arg.c_str());
      return Usage();
    }
  }

  p3gm::obs::bench::BenchFileData base, cand;
  std::string error;
  if (!p3gm::obs::bench::LoadBenchFile(base_path, &base, &error)) {
    std::fprintf(stderr, "error: %s: %s\n", base_path.c_str(),
                 error.c_str());
    return 2;
  }
  if (!p3gm::obs::bench::LoadBenchFile(cand_path, &cand, &error)) {
    std::fprintf(stderr, "error: %s: %s\n", cand_path.c_str(),
                 error.c_str());
    return 2;
  }

  const auto comparisons =
      p3gm::obs::bench::CompareFiles(base, cand, options);
  std::fputs(p3gm::obs::bench::FormatReport(comparisons, base, cand).c_str(),
             stdout);

  if (p3gm::obs::bench::GateFails(comparisons, options)) {
    std::fprintf(stderr, "bench_compare: FAIL (performance regression)\n");
    return 1;
  }
  std::printf("bench_compare: OK\n");
  return 0;
}
