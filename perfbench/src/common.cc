#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

#include "obs/json.h"
#include "obs/observability.h"
#include "util/check.h"

namespace p3gm {
namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kTable = {
      {"setup_s", "s"},         {"mean_ms", "ms"},
      {"p90_ms", "ms"},         {"ops_per_s", "1/s"},
      {"cpu_ms_per_op", "ms"},  {"peak_rss_mb", "MiB"},
  };
  return kTable;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kTable = {
      {"pca.fit_s", "s"},
      {"pca.encode_s", "s"},
      {"em.fit_s", "s"},
      {"sgd.batch_s", "s"},
      {"sgd.forward_s", "s"},
      {"sgd.loss_s", "s"},
      {"sgd.backward_s", "s"},
      {"sgd.norms_s", "s"},
      {"sgd.clip_s", "s"},
      {"sgd.noise_s", "s"},
      {"sgd.optim_s", "s"},
      {"sgd.account_s", "s"},
      {"sgd.steps", "count"},
      {"sgd.step_p50_ms", "ms"},
      {"sgd.clip_rate", "ratio"},
      {"pool.tasks_per_step", "count"},
      {"train.coverage", "ratio"},
      {"train.recon_loss", "nats"},
      {"http.parse_us", "us"},
      {"api.request_us", "us"},
      {"release.latent_us", "us"},
      {"infer.decode_us", "us"},
      {"release.assemble_us", "us"},
      {"api.encode_us", "us"},
      {"http.serialize_us", "us"},
      {"api.response_bytes", "bytes"},
      {"batcher.reqs_per_pass", "ratio"},
      {"serve.stages_us", "us"},
      {"serve.residual_us", "us"},
      {"serve.overload", "count"},
      {"serve.cpu_us_per_req", "us"},
      {"serve.p50_ms", "ms"},
      {"serve.p99_ms", "ms"},
      {"trace.overhead_ms", "ms"},
  };
  return kTable;
}

namespace {

const MetricSpec* FindSpec(const std::vector<MetricSpec>& table,
                           const std::string& name) {
  for (const MetricSpec& spec : table) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

}  // namespace

void RunResult::Add(const std::string& name, double value) {
  const MetricSpec* spec = FindSpec(EndToEndMetrics(), name);
  if (spec == nullptr) spec = FindSpec(PerLayerMetrics(), name);
  P3GM_CHECK_MSG(spec != nullptr, name.c_str());
  metrics_.push_back({name, value, spec->unit});
}

void RunResult::Select(const std::vector<MetricSpec>& table) {
  std::vector<Metric> selected;
  for (const MetricSpec& spec : table) {
    const double v = Get(spec.name);
    selected.push_back({spec.name, std::isnan(v) ? 0.0 : v, spec.unit});
  }
  metrics_ = std::move(selected);
}

void RunResult::Operation(bool ok) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    correct_ = false;
  }
}

void RunResult::Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  correct_ = false;
}

double RunResult::Get(const std::string& name) const {
  for (auto it = metrics_.rbegin(); it != metrics_.rend(); ++it) {
    if (it->name == name) return it->value;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

std::string RunResult::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char number[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // JSON has no NaN/Inf; a metric that could not be measured reads 0.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(number, sizeof(number), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + obs::json::Escape(m.name) + "\": {\"value\": " + number +
           ", \"unit\": \"" + obs::json::Escape(m.unit) + "\"}";
  }
  out += "}}";
  return out;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

bool WantAnotherSetup(std::size_t done, double elapsed_s, bool trace) {
  if (trace) return done < 1;
  return done < 5 || (elapsed_s < 2.0 && done < 15);
}

double NowSeconds() { return static_cast<double>(obs::NowNs()) * 1e-9; }

double ProcessCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

std::uint64_t HashMatrices(const std::vector<linalg::Matrix>& matrices) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* data, std::size_t len) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  for (const linalg::Matrix& m : matrices) {
    const std::size_t shape[2] = {m.rows(), m.cols()};
    mix(shape, sizeof(shape));
    mix(m.data(), m.size() * sizeof(double));
  }
  return h;
}

std::vector<double> SpanSeconds(
    const std::vector<obs::TraceRecorder::Event>& events, const char* name) {
  std::vector<double> out;
  for (const obs::TraceRecorder::Event& e : events) {
    if (std::strcmp(e.name, name) == 0) {
      out.push_back(static_cast<double>(e.end_ns - e.start_ns) * 1e-9);
    }
  }
  return out;
}

double SumSpanSeconds(const std::vector<obs::TraceRecorder::Event>& events,
                      const char* name) {
  double total = 0.0;
  for (double s : SpanSeconds(events, name)) total += s;
  return total;
}

}  // namespace perfbench
}  // namespace p3gm
