#include "obs/bench/harness.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/json.h"
#include "obs/observability.h"

// Burned in by src/obs/CMakeLists.txt at configure time; the fallbacks
// keep non-CMake compiles (tooling, IDE) working.
#ifndef P3GM_GIT_SHA
#define P3GM_GIT_SHA "unknown"
#endif
#ifndef P3GM_BUILD_TYPE
#define P3GM_BUILD_TYPE "unknown"
#endif
#ifndef P3GM_CXX_FLAGS
#define P3GM_CXX_FLAGS ""
#endif

namespace p3gm {
namespace obs {
namespace bench {

namespace {

int EnvInt(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return fallback;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v < 0 || v > 1000000) return fallback;
  return static_cast<int>(v);
}

std::string ReadCpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (line.compare(0, 10, "model name") == 0) {
      std::size_t start = colon + 1;
      while (start < line.size() && line[start] == ' ') ++start;
      return line.substr(start);
    }
  }
  return "unknown";
}

}  // namespace

BenchOptions BenchOptions::FromEnv() {
  BenchOptions opt;
  opt.reps = EnvInt("P3GM_BENCH_REPS", opt.reps);
  opt.warmup = EnvInt("P3GM_BENCH_WARMUP", opt.warmup);
  return opt;
}

RunInfo CollectRunInfo(const std::string& name) {
  RunInfo info;
  info.suite = name;
  info.git_sha = P3GM_GIT_SHA;
  info.cpu_model = ReadCpuModel();
  info.build_type = P3GM_BUILD_TYPE;
  info.cxx_flags = P3GM_CXX_FLAGS;
  info.hw_counters = perf::HardwareCountersAvailable();
  info.alloc_tracking = perf::AllocTrackingCompiledIn();
  return info;
}

BenchSuite::BenchSuite(std::string name)
    : runinfo_(CollectRunInfo(std::move(name))),
      stats_options_(BenchOptions::FromEnv()) {}

BenchResult* BenchSuite::FindOrCreate(const std::string& bench_name) {
  for (auto& r : results_) {
    if (r.name == bench_name) return &r;
  }
  results_.push_back({});
  results_.back().name = bench_name;
  results_.back().counters.hw_available = true;  // Until an && says no.
  return &results_.back();
}

const BenchResult& BenchSuite::Run(const std::string& bench_name,
                                   const std::function<void()>& fn,
                                   BenchOptions options) {
  BenchResult* result = FindOrCreate(bench_name);
  for (int i = 0; i < options.warmup; ++i) fn();
  for (int i = 0; i < options.reps; ++i) {
    perf::AllocScope alloc_scope;
    perf::PerfCounters counters;
    counters.Start();
    fn();
    const perf::PerfSample sample = counters.Stop();
    result->samples_seconds.push_back(sample.wall_seconds);
    result->counters.Accumulate(sample);
    const perf::AllocStats alloc = alloc_scope.Delta();
    result->alloc.alloc_count += alloc.alloc_count;
    result->alloc.free_count += alloc.free_count;
    result->alloc.bytes_allocated += alloc.bytes_allocated;
    result->alloc.bytes_freed += alloc.bytes_freed;
    if (alloc.peak_live_bytes > result->alloc.peak_live_bytes) {
      result->alloc.peak_live_bytes = alloc.peak_live_bytes;
    }
  }
  result->stats =
      Summarize(result->samples_seconds, options.reject_outliers,
                options.bootstrap_seed, options.bootstrap_reps);
  return *result;
}

void BenchSuite::RunInterleaved(const std::vector<NamedBench>& benches,
                                BenchOptions options) {
  for (const NamedBench& b : benches) {
    FindOrCreate(b.name);  // Stable output order = input order.
    for (int i = 0; i < options.warmup; ++i) b.fn();
  }
  for (int rep = 0; rep < options.reps; ++rep) {
    for (const NamedBench& b : benches) {
      BenchResult* result = FindOrCreate(b.name);
      perf::AllocScope alloc_scope;
      perf::PerfCounters counters;
      counters.Start();
      b.fn();
      const perf::PerfSample sample = counters.Stop();
      result->samples_seconds.push_back(sample.wall_seconds);
      result->counters.Accumulate(sample);
      const perf::AllocStats alloc = alloc_scope.Delta();
      result->alloc.alloc_count += alloc.alloc_count;
      result->alloc.free_count += alloc.free_count;
      result->alloc.bytes_allocated += alloc.bytes_allocated;
      result->alloc.bytes_freed += alloc.bytes_freed;
      if (alloc.peak_live_bytes > result->alloc.peak_live_bytes) {
        result->alloc.peak_live_bytes = alloc.peak_live_bytes;
      }
    }
  }
  for (const NamedBench& b : benches) {
    BenchResult* result = FindOrCreate(b.name);
    result->stats =
        Summarize(result->samples_seconds, options.reject_outliers,
                  options.bootstrap_seed, options.bootstrap_reps);
  }
}

void BenchSuite::RecordSample(const std::string& bench_name, double seconds,
                              const perf::PerfSample* counters,
                              const perf::AllocStats* alloc) {
  BenchResult* result = FindOrCreate(bench_name);
  result->samples_seconds.push_back(seconds);
  if (counters != nullptr) {
    result->counters.Accumulate(*counters);
  } else {
    result->counters.hw_available = false;
  }
  if (alloc != nullptr) {
    result->alloc.alloc_count += alloc->alloc_count;
    result->alloc.free_count += alloc->free_count;
    result->alloc.bytes_allocated += alloc->bytes_allocated;
    result->alloc.bytes_freed += alloc->bytes_freed;
    if (alloc->peak_live_bytes > result->alloc.peak_live_bytes) {
      result->alloc.peak_live_bytes = alloc->peak_live_bytes;
    }
  }
  result->stats =
      Summarize(result->samples_seconds, stats_options_.reject_outliers,
                stats_options_.bootstrap_seed,
                stats_options_.bootstrap_reps);
}

std::string BenchSuite::ToJson() const {
  std::string out = "{\n";
  out += "  \"schema\": \"" + json::Escape(runinfo_.schema) + "\",\n";
  out += "  \"_runinfo\": {\n";
  out += "    \"suite\": \"" + json::Escape(runinfo_.suite) + "\",\n";
  out += "    \"git_sha\": \"" + json::Escape(runinfo_.git_sha) + "\",\n";
  out +=
      "    \"cpu_model\": \"" + json::Escape(runinfo_.cpu_model) + "\",\n";
  out += "    \"build_type\": \"" + json::Escape(runinfo_.build_type) +
         "\",\n";
  out +=
      "    \"cxx_flags\": \"" + json::Escape(runinfo_.cxx_flags) + "\",\n";
  out += "    \"threads\": " + std::to_string(runinfo_.threads) + ",\n";
  out += "    \"wall_seconds\": ";
  json::AppendNumber(&out, runinfo_.wall_seconds);
  out += ",\n";
  out += std::string("    \"hw_counters\": ") +
         (runinfo_.hw_counters ? "true" : "false") + ",\n";
  out += std::string("    \"alloc_tracking\": ") +
         (runinfo_.alloc_tracking ? "true" : "false") + "\n";
  out += "  },\n";
  out += "  \"benchmarks\": [";
  bool first = true;
  for (const BenchResult& r : results_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"" + json::Escape(r.name) + "\",\n";
    out += "     \"samples_seconds\": [";
    for (std::size_t i = 0; i < r.samples_seconds.size(); ++i) {
      if (i > 0) out += ", ";
      json::AppendNumber(&out, r.samples_seconds[i]);
    }
    out += "],\n";
    const SampleStats& s = r.stats;
    out += "     \"stats\": {\"n\": " + std::to_string(s.n) +
           ", \"rejected\": " + std::to_string(s.rejected);
    const std::pair<const char*, double> stats[] = {
        {"min", s.min},       {"max", s.max},         {"mean", s.mean},
        {"median", s.median}, {"mad", s.mad},         {"ci95_lo", s.ci95_lo},
        {"ci95_hi", s.ci95_hi}};
    for (const auto& [key, v] : stats) {
      out += ", \"";
      out += key;
      out += "\": ";
      json::AppendNumber(&out, v);
    }
    out += "},\n";
    const perf::PerfSample& c = r.counters;
    out += std::string("     \"counters\": {\"hw_available\": ") +
           (c.hw_available ? "true" : "false");
    if (c.hw_available) {
      out += ", \"cycles\": " + std::to_string(c.cycles) +
             ", \"instructions\": " + std::to_string(c.instructions) +
             ", \"cache_misses\": " + std::to_string(c.cache_misses) +
             ", \"branch_misses\": " + std::to_string(c.branch_misses);
    }
    out += ", \"user_seconds\": ";
    json::AppendNumber(&out, c.user_seconds);
    out += ", \"sys_seconds\": ";
    json::AppendNumber(&out, c.sys_seconds);
    out += ", \"minor_faults\": " + std::to_string(c.minor_faults) +
           ", \"major_faults\": " + std::to_string(c.major_faults) +
           ", \"max_rss_kb\": " + std::to_string(c.max_rss_kb) + "},\n";
    const perf::AllocStats& a = r.alloc;
    out += std::string("     \"alloc\": {\"available\": ") +
           (perf::AllocTrackingCompiledIn() ? "true" : "false") +
           ", \"alloc_count\": " + std::to_string(a.alloc_count) +
           ", \"bytes_allocated\": " + std::to_string(a.bytes_allocated) +
           ", \"peak_live_bytes\": " + std::to_string(a.peak_live_bytes) +
           "}}";
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

bool BenchSuite::WriteJson(const std::string& path) const {
  return json::WriteFile(path, ToJson());
}

const BenchResult* BenchFileData::Find(const std::string& name) const {
  for (const auto& b : benchmarks) {
    if (b.name == name) return &b;
  }
  return nullptr;
}

bool ParseBenchJson(const std::string& text, BenchFileData* out,
                    std::string* error) {
  json::Value root;
  if (!json::Parse(text, &root, error)) return false;
  if (!root.is_object()) {
    if (error != nullptr) *error = "top level is not an object";
    return false;
  }
  const std::string schema = root.StringOr("schema", "");
  if (schema != kBenchSchemaVersion) {
    if (error != nullptr) {
      *error = "unsupported schema \"" + schema + "\" (want " +
               std::string(kBenchSchemaVersion) + ")";
    }
    return false;
  }
  *out = BenchFileData();
  out->runinfo.schema = schema;
  if (const json::Value* ri = root.Find("_runinfo")) {
    out->runinfo.suite = ri->StringOr("suite", "");
    out->runinfo.git_sha = ri->StringOr("git_sha", "unknown");
    out->runinfo.cpu_model = ri->StringOr("cpu_model", "unknown");
    out->runinfo.build_type = ri->StringOr("build_type", "unknown");
    out->runinfo.cxx_flags = ri->StringOr("cxx_flags", "");
    out->runinfo.threads = static_cast<int>(ri->NumberOr("threads", 0));
    out->runinfo.wall_seconds = ri->NumberOr("wall_seconds", 0.0);
    out->runinfo.hw_counters = ri->BoolOr("hw_counters", false);
    out->runinfo.alloc_tracking = ri->BoolOr("alloc_tracking", false);
  }
  const json::Value* benchmarks = root.Find("benchmarks");
  if (benchmarks == nullptr || !benchmarks->is_array()) {
    if (error != nullptr) *error = "missing \"benchmarks\" array";
    return false;
  }
  for (const json::Value& b : benchmarks->items) {
    if (!b.is_object()) continue;
    BenchResult r;
    r.name = b.StringOr("name", "");
    if (r.name.empty()) {
      if (error != nullptr) *error = "benchmark entry without a name";
      return false;
    }
    if (const json::Value* samples = b.Find("samples_seconds");
        samples != nullptr && samples->is_array()) {
      for (const json::Value& s : samples->items) {
        if (s.is_number()) r.samples_seconds.push_back(s.number_value);
      }
    }
    if (const json::Value* stats = b.Find("stats")) {
      r.stats.n = static_cast<std::size_t>(stats->NumberOr("n", 0));
      r.stats.rejected =
          static_cast<std::size_t>(stats->NumberOr("rejected", 0));
      r.stats.min = stats->NumberOr("min", 0.0);
      r.stats.max = stats->NumberOr("max", 0.0);
      r.stats.mean = stats->NumberOr("mean", 0.0);
      r.stats.median = stats->NumberOr("median", 0.0);
      r.stats.mad = stats->NumberOr("mad", 0.0);
      r.stats.ci95_lo = stats->NumberOr("ci95_lo", 0.0);
      r.stats.ci95_hi = stats->NumberOr("ci95_hi", 0.0);
    }
    out->benchmarks.push_back(std::move(r));
  }
  return true;
}

bool LoadBenchFile(const std::string& path, BenchFileData* out,
                   std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseBenchJson(buffer.str(), out, error);
}

}  // namespace bench
}  // namespace obs
}  // namespace p3gm
