#ifndef P3GM_OBS_BENCH_COMPARE_H_
#define P3GM_OBS_BENCH_COMPARE_H_

#include <string>
#include <vector>

#include "obs/bench/harness.h"

namespace p3gm {
namespace obs {
namespace bench {

/// Perf-regression gate between two BENCH_*.json files (baseline vs
/// candidate). A benchmark counts as REGRESSED only when both hold:
///
///   1. the candidate median exceeds the baseline median by more than
///      `min_rel_regress` (relative slack for between-run machine
///      drift), and
///   2. the pooled 95% confidence intervals are disjoint in the slow
///      direction (cand.ci95_lo > base.ci95_hi) — a shift that bootstrap
///      noise cannot explain.
///
/// Both legs are needed: leg 2 alone flags microsecond-tight kernels
/// whose CIs are razor thin; leg 1 alone flags noise on jittery
/// machines. Improvements use the mirrored rule and are reported but
/// never fail the gate.

struct CompareOptions {
  // Slack on the drift-normalized median ratio. Sized to the residual
  // between-run noise left after drift normalization (below), which the
  // bootstrap CI cannot see (it only resamples within one run). The
  // default passes same-machine reruns on a noisy shared builder while
  // still catching a 2x regression outright; tighten with --max-regress
  // on quiet bare metal.
  double min_rel_regress = 0.35;
  bool fail_on_missing = false;  // Baseline benchmark absent from cand.
  // Cancel uniform machine drift before judging: divide every candidate
  // median (and CI) by the median of the cand/base median ratios over
  // the shared benchmarks. On shared or container hosts the whole suite
  // runs 1.3-1.7x slower in some phases (host contention) — a common
  // factor that would otherwise swamp any per-benchmark rule. The median
  // ignores a minority of benchmarks that a change really moved, so a
  // few 4x-faster kernels cannot make the flat rest read as regressions.
  // Blind spot, by construction: a change that slows most benchmarks by
  // the same factor is indistinguishable from machine drift and is
  // reported (as the drift factor) but not gated.
  bool normalize_drift = true;
};

enum class Verdict {
  kSame,       // Neither rule fired.
  kImproved,   // Mirrored rule fired in the fast direction.
  kRegressed,  // Both regression legs fired.
  kMissing,    // In baseline only.
  kNew,        // In candidate only.
};

const char* VerdictName(Verdict v);

struct Comparison {
  std::string name;
  Verdict verdict = Verdict::kSame;
  double base_median = 0.0;
  double cand_median = 0.0;
  double ratio = 0.0;  // cand/base, raw; 0 when either side is missing.
  double drift = 1.0;  // Suite-wide factor divided out before judging.
};

/// The decision rule for one benchmark present in both files. `drift`
/// is the suite-wide machine-speed factor divided out of the candidate
/// before both legs (1.0 = no normalization).
Comparison CompareEntry(const BenchResult& base, const BenchResult& cand,
                        const CompareOptions& options, double drift = 1.0);

/// Median of the cand/base median ratios over benchmarks present in
/// both files; for an even count, the geometric mean of the two middle
/// ratios (1.0 when fewer than 2 are shared — one benchmark cannot be
/// told apart from the machine).
double DriftFactor(const BenchFileData& base, const BenchFileData& cand);

/// Full diff in baseline order, with candidate-only entries appended.
/// Applies drift normalization per `options.normalize_drift`.
std::vector<Comparison> CompareFiles(const BenchFileData& base,
                                     const BenchFileData& cand,
                                     const CompareOptions& options);

/// Gate predicate: any kRegressed (or kMissing with fail_on_missing).
bool GateFails(const std::vector<Comparison>& comparisons,
               const CompareOptions& options);

/// Human-readable report table (one line per comparison).
std::string FormatReport(const std::vector<Comparison>& comparisons,
                         const BenchFileData& base,
                         const BenchFileData& cand);

}  // namespace bench
}  // namespace obs
}  // namespace p3gm

#endif  // P3GM_OBS_BENCH_COMPARE_H_
