#include "obs/registry.h"

#include <algorithm>
#include <limits>

#include "obs/json.h"
#include "util/check.h"

namespace p3gm {
namespace obs {

namespace {

void AtomicAddDouble(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (!a->compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    P3GM_CHECK(bounds_[i - 1] < bounds_[i]);
  }
}

void Histogram::Observe(double v) {
  if (!Enabled()) return;
  const std::size_t b = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&sum_, v);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double HistogramSample::Quantile(double q) const {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  if (count == 0 || bounds.empty() ||
      bucket_counts.size() != bounds.size() + 1) {
    return nan;
  }
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Target rank within the cumulative distribution, in [0, count].
  const double rank = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    const std::uint64_t in_bucket = bucket_counts[i];
    if (in_bucket > 0 &&
        rank <= static_cast<double>(cumulative + in_bucket)) {
      const double lower = i == 0 ? std::min(0.0, bounds[0]) : bounds[i - 1];
      const double upper = bounds[i];
      const double into =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      // Rank 0 (q == 0 with a leading empty region) still lands at the
      // bucket's lower edge, which is the most honest point estimate.
      return lower + (upper - lower) * std::max(0.0, into);
    }
    cumulative += in_bucket;
  }
  // Rank falls in the overflow bucket: the upper edge is unknown, so
  // clamp to the largest finite bound.
  return bounds.back();
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

Registry& Registry::Global() {
  // Leaked on purpose: instrument pointers cached at call sites (and
  // thread-pool workers unwinding late in shutdown) must never dangle.
  static Registry* global = new Registry();
  return *global;
}

Counter* Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return slot.get();
}

Snapshot Registry::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back(
        {name, h->bounds(), h->bucket_counts(), h->count(), h->sum()});
  }
  return snap;
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

std::string Snapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& c : counters) {
    out += first ? "\n" : ",\n";
    out += "    \"" + json::Escape(c.name) + "\": " + std::to_string(c.value);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& g : gauges) {
    out += first ? "\n" : ",\n";
    out += "    \"" + json::Escape(g.name) + "\": ";
    json::AppendNumber(&out, g.value);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& h : histograms) {
    out += first ? "\n" : ",\n";
    out += "    \"" + json::Escape(h.name) +
           "\": {\"count\": " + std::to_string(h.count) + ", \"sum\": ";
    json::AppendNumber(&out, h.sum);
    out += ", \"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i > 0) out += ", ";
      json::AppendNumber(&out, h.bounds[i]);
    }
    out += "], \"bucket_counts\": [";
    for (std::size_t i = 0; i < h.bucket_counts.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(h.bucket_counts[i]);
    }
    out += "]}";
    first = false;
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

std::string Snapshot::ToCsv() const {
  std::string out = "kind,name,field,value\n";
  for (const auto& c : counters) {
    out += "counter," + c.name + ",value," + std::to_string(c.value) + "\n";
  }
  for (const auto& g : gauges) {
    out += "gauge," + g.name + ",value,";
    json::AppendNumber(&out, g.value);
    out += '\n';
  }
  for (const auto& h : histograms) {
    out += "histogram," + h.name + ",count," + std::to_string(h.count) + "\n";
    out += "histogram," + h.name + ",sum,";
    json::AppendNumber(&out, h.sum);
    out += '\n';
    for (std::size_t i = 0; i < h.bucket_counts.size(); ++i) {
      out += "histogram," + h.name + ",le_";
      if (i < h.bounds.size()) {
        json::AppendNumber(&out, h.bounds[i]);
      } else {
        out += "inf";
      }
      out += "," + std::to_string(h.bucket_counts[i]) + "\n";
    }
  }
  return out;
}

bool Snapshot::WriteJson(const std::string& path) const {
  return json::WriteFile(path, ToJson());
}

bool Snapshot::WriteCsv(const std::string& path) const {
  return json::WriteFile(path, ToCsv());
}

}  // namespace obs
}  // namespace p3gm
