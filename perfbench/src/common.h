#ifndef P3GM_PERFBENCH_COMMON_H_
#define P3GM_PERFBENCH_COMMON_H_

// Shared plumbing of the benchmark driver: run arguments, the result
// record printed as the last stdout line, order statistics, process
// resource probes, and span lookups for the traced runs, which time each
// layer from outside the library.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "linalg/matrix.h"
#include "obs/trace.h"

namespace p3gm {
namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every workload to self-test size (seconds, not minutes).
  bool tiny = false;
  /// Where serving runs save their package and traced runs write their
  /// chrome-trace JSON.
  std::string out_dir;
};

/// One reported metric. The two tables below are the benchmark's metric
/// catalogue and mirror BENCHMARK.json ("end_to_end" and "per_layer").
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// What one run reports. `correct` goes false on any failed output
/// check; each failed operation also counts in `failed`.
class RunResult {
 public:
  /// Sets a catalogued metric (fatal for a name not in either table).
  void Add(const std::string& name, double value);
  /// Keeps only the metrics of `table`, in its order; a metric the
  /// workload does not have (a training layer on a serving workload,
  /// say) reads 0.
  void Select(const std::vector<MetricSpec>& table);
  /// Records one operation; a failed one also clears `correct`.
  void Operation(bool ok);
  /// Records a failed check that is not itself an operation.
  void Fail(const std::string& why);

  bool correct() const { return correct_; }
  std::uint64_t failed() const { return failed_; }

  /// {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
  std::string ToJson() const;

 private:
  /// Value of the metric added last under `name` (NaN when absent).
  double Get(const std::string& name) const;

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// Linear-interpolated q-quantile (q in [0, 1]); NaN when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
/// Arithmetic mean; NaN when empty.
double Mean(const std::vector<double>& values);

/// Set-up repeats at least five times and until two seconds have passed
/// (at most 15 times); setup_s is the median. Traced runs set up once.
bool WantAnotherSetup(std::size_t done, double elapsed_s, bool trace);

double NowSeconds();          // steady clock
double ProcessCpuSeconds();   // user + sys of the whole process
double PeakRssMb();           // VmHWM of the process, in MiB

/// FNV-1a over the raw bytes of every matrix, shapes included.
std::uint64_t HashMatrices(const std::vector<linalg::Matrix>& matrices);

/// Durations in seconds of the spans named `name` among `events` (from
/// obs::TraceRecorder::Global(), which keeps the benchmark's spans and,
/// while observability is on, the library's own).
std::vector<double> SpanSeconds(
    const std::vector<obs::TraceRecorder::Event>& events, const char* name);
double SumSpanSeconds(const std::vector<obs::TraceRecorder::Event>& events,
                      const char* name);

}  // namespace perfbench
}  // namespace p3gm

#endif  // P3GM_PERFBENCH_COMMON_H_
