// Regenerates the golden regression files: the fixed-seed P3GM training
// trace, the fixed-weight decode fixture, the high-dimensional DP-PCA
// fixture and the ELBO-variant fixture (see src/audit/golden.h). Usage:
//
//   build/tools/regen_golden [trace [decode [dp_pca [elbo]]]]
//
// With no argument all fixtures are printed to stdout (trace first);
// with paths they are written there, normally, in this order:
//
//   tests/golden/pgm_small.golden
//   tests/golden/decode_small.golden
//   tests/golden/dp_pca_d200.golden
//   tests/golden/elbo_small.golden
//
// Run this after an *intentional* numeric change and commit the updated
// file(s) together with the change that caused it.

#include <cstdio>
#include <string>
#include <vector>

#include "audit/golden.h"

int main(int argc, char** argv) {
  using Lines = std::vector<std::string> (*)();
  using Writer = bool (*)(const std::string&);
  static constexpr Lines kLines[] = {
      p3gm::audit::GoldenPgmTraceLines, p3gm::audit::GoldenDecodeLines,
      p3gm::audit::GoldenDpPcaLines, p3gm::audit::GoldenElboLines};
  static constexpr Writer kWriters[] = {
      p3gm::audit::WriteGoldenTrace, p3gm::audit::WriteGoldenDecode,
      p3gm::audit::WriteGoldenDpPca, p3gm::audit::WriteGoldenElbo};
  if (argc < 2) {
    for (const Lines lines : kLines) {
      for (const std::string& line : lines()) {
        std::printf("%s\n", line.c_str());
      }
    }
    return 0;
  }
  for (int i = 1; i < argc && i <= 4; ++i) {
    if (!kWriters[i - 1](argv[i])) {
      std::fprintf(stderr, "regen_golden: cannot write %s\n", argv[i]);
      return 1;
    }
    std::printf("regen_golden: wrote %s\n", argv[i]);
  }
  return 0;
}
