#include "obs/bench/compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace p3gm {
namespace obs {
namespace bench {

const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kSame:
      return "same";
    case Verdict::kImproved:
      return "improved";
    case Verdict::kRegressed:
      return "REGRESSED";
    case Verdict::kMissing:
      return "missing";
    case Verdict::kNew:
      return "new";
  }
  return "?";
}

Comparison CompareEntry(const BenchResult& base, const BenchResult& cand,
                        const CompareOptions& options, double drift) {
  Comparison c;
  c.name = base.name;
  c.base_median = base.stats.median;
  c.cand_median = cand.stats.median;
  c.ratio = base.stats.median > 0.0 ? cand.stats.median / base.stats.median
                                    : 0.0;
  c.drift = drift;
  // Judge the drift-normalized candidate: the common machine-speed
  // factor is divided out of both the median and its CI before either
  // leg fires.
  const double norm_median = cand.stats.median / drift;
  const double norm_ci_lo = cand.stats.ci95_lo / drift;
  const double norm_ci_hi = cand.stats.ci95_hi / drift;
  const double slack = 1.0 + options.min_rel_regress;
  const bool slower_beyond_slack = norm_median > base.stats.median * slack;
  const bool ci_disjoint_slow = norm_ci_lo > base.stats.ci95_hi;
  const bool faster_beyond_slack = norm_median * slack < base.stats.median;
  const bool ci_disjoint_fast = norm_ci_hi < base.stats.ci95_lo;
  if (slower_beyond_slack && ci_disjoint_slow) {
    c.verdict = Verdict::kRegressed;
  } else if (faster_beyond_slack && ci_disjoint_fast) {
    c.verdict = Verdict::kImproved;
  } else {
    c.verdict = Verdict::kSame;
  }
  return c;
}

double DriftFactor(const BenchFileData& base, const BenchFileData& cand) {
  std::vector<double> log_ratios;
  for (const BenchResult& b : base.benchmarks) {
    const BenchResult* c = cand.Find(b.name);
    if (c == nullptr || b.stats.median <= 0.0 || c->stats.median <= 0.0) {
      continue;
    }
    log_ratios.push_back(std::log(c->stats.median / b.stats.median));
  }
  // One shared benchmark cannot be told apart from the machine; leave
  // it un-normalized so a genuine single-bench regression still gates.
  const std::size_t shared = log_ratios.size();
  if (shared < 2) return 1.0;
  // The median ratio, so a minority of benchmarks that a change really
  // sped up or slowed down does not move the factor; for an even count,
  // the geometric mean of the two middle ratios.
  std::sort(log_ratios.begin(), log_ratios.end());
  const double mid = shared % 2 == 1
                         ? log_ratios[shared / 2]
                         : 0.5 * (log_ratios[shared / 2 - 1] +
                                  log_ratios[shared / 2]);
  return std::exp(mid);
}

std::vector<Comparison> CompareFiles(const BenchFileData& base,
                                     const BenchFileData& cand,
                                     const CompareOptions& options) {
  const double drift =
      options.normalize_drift ? DriftFactor(base, cand) : 1.0;
  std::vector<Comparison> out;
  for (const BenchResult& b : base.benchmarks) {
    const BenchResult* c = cand.Find(b.name);
    if (c == nullptr) {
      Comparison missing;
      missing.name = b.name;
      missing.verdict = Verdict::kMissing;
      missing.base_median = b.stats.median;
      missing.drift = drift;
      out.push_back(missing);
      continue;
    }
    out.push_back(CompareEntry(b, *c, options, drift));
  }
  for (const BenchResult& c : cand.benchmarks) {
    if (base.Find(c.name) != nullptr) continue;
    Comparison fresh;
    fresh.name = c.name;
    fresh.verdict = Verdict::kNew;
    fresh.cand_median = c.stats.median;
    fresh.drift = drift;
    out.push_back(fresh);
  }
  return out;
}

bool GateFails(const std::vector<Comparison>& comparisons,
               const CompareOptions& options) {
  for (const Comparison& c : comparisons) {
    if (c.verdict == Verdict::kRegressed) return true;
    if (options.fail_on_missing && c.verdict == Verdict::kMissing) {
      return true;
    }
  }
  return false;
}

std::string FormatReport(const std::vector<Comparison>& comparisons,
                         const BenchFileData& base,
                         const BenchFileData& cand) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "baseline: %s (%s, %d threads)\ncandidate: %s (%s, %d "
                "threads)\n",
                base.runinfo.git_sha.c_str(),
                base.runinfo.cpu_model.c_str(), base.runinfo.threads,
                cand.runinfo.git_sha.c_str(),
                cand.runinfo.cpu_model.c_str(), cand.runinfo.threads);
  out += buf;
  if (base.runinfo.cpu_model != cand.runinfo.cpu_model) {
    out += "WARNING: different CPU models — medians are not directly "
           "comparable\n";
  }
  const double drift = comparisons.empty() ? 1.0 : comparisons[0].drift;
  if (drift != 1.0) {
    std::snprintf(buf, sizeof buf,
                  "machine drift factor %.3f divided out of candidate "
                  "medians (uniform suite-wide slowdowns beyond this are "
                  "not gated)\n",
                  drift);
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "%-40s %12s %12s %8s  %s\n", "benchmark",
                "base_median", "cand_median", "ratio", "verdict");
  out += buf;
  for (const Comparison& c : comparisons) {
    if (c.verdict == Verdict::kMissing) {
      std::snprintf(buf, sizeof buf, "%-40s %12.6f %12s %8s  %s\n",
                    c.name.c_str(), c.base_median, "-", "-",
                    VerdictName(c.verdict));
    } else if (c.verdict == Verdict::kNew) {
      std::snprintf(buf, sizeof buf, "%-40s %12s %12.6f %8s  %s\n",
                    c.name.c_str(), "-", c.cand_median, "-",
                    VerdictName(c.verdict));
    } else {
      std::snprintf(buf, sizeof buf, "%-40s %12.6f %12.6f %8.3f  %s\n",
                    c.name.c_str(), c.base_median, c.cand_median, c.ratio,
                    VerdictName(c.verdict));
    }
    out += buf;
  }
  return out;
}

}  // namespace bench
}  // namespace obs
}  // namespace p3gm
