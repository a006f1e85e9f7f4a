#include "obs/prometheus.h"

#include <cstdio>
#include <map>

#include "obs/json.h"

namespace p3gm {
namespace obs {

namespace {

// Registry names carry labels inline as `base{k="v",...}` (the
// LabeledName convention). Splits off the label block, brace-less;
// returns an empty label string for plain names.
void SplitName(const std::string& name, std::string* base,
               std::string* labels) {
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') {
    *base = name;
    labels->clear();
    return;
  }
  *base = name.substr(0, brace);
  *labels = name.substr(brace + 1, name.size() - brace - 2);
}

std::string FormatBound(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

// "name" or "name{labels}" with an optional extra label appended.
std::string SeriesRef(const std::string& base, const std::string& labels,
                      const std::string& extra = "") {
  if (labels.empty() && extra.empty()) return base;
  std::string out = base;
  out += '{';
  out += labels;
  if (!labels.empty() && !extra.empty()) out += ',';
  out += extra;
  out += '}';
  return out;
}

// Groups samples of one kind by sanitized base name so each base gets
// exactly one # TYPE line even when label variants interleave with
// other names in the snapshot's flat sort order.
template <typename Sample>
std::map<std::string, std::vector<std::pair<std::string, const Sample*>>>
GroupByBase(const std::vector<Sample>& samples) {
  std::map<std::string, std::vector<std::pair<std::string, const Sample*>>>
      groups;
  for (const Sample& sample : samples) {
    std::string base, labels;
    SplitName(sample.name, &base, &labels);
    groups[SanitizeMetricName(base)].emplace_back(labels, &sample);
  }
  return groups;
}

}  // namespace

std::string SanitizeMetricName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string LabeledName(
    const std::string& base,
    const std::vector<std::pair<std::string, std::string>>& labels) {
  if (labels.empty()) return base;
  std::string out = base;
  out += '{';
  bool first = true;
  for (const auto& kv : labels) {
    if (!first) out += ',';
    out += kv.first;
    out += "=\"";
    out += EscapeLabelValue(kv.second);
    out += '"';
    first = false;
  }
  out += '}';
  return out;
}

std::string ToPrometheusText(const Snapshot& snapshot) {
  std::string out;
  char buf[64];

  for (const auto& group : GroupByBase(snapshot.counters)) {
    out += "# TYPE " + group.first + " counter\n";
    for (const auto& entry : group.second) {
      std::snprintf(buf, sizeof buf, " %llu\n",
                    static_cast<unsigned long long>(entry.second->value));
      out += SeriesRef(group.first, entry.first);
      out += buf;
    }
  }

  for (const auto& group : GroupByBase(snapshot.gauges)) {
    out += "# TYPE " + group.first + " gauge\n";
    for (const auto& entry : group.second) {
      out += SeriesRef(group.first, entry.first);
      out += ' ';
      json::AppendNumber(&out, entry.second->value);
      out += '\n';
    }
  }

  for (const auto& group : GroupByBase(snapshot.histograms)) {
    out += "# TYPE " + group.first + " histogram\n";
    for (const auto& entry : group.second) {
      const HistogramSample& h = *entry.second;
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < h.bounds.size(); ++i) {
        if (i < h.bucket_counts.size()) cumulative += h.bucket_counts[i];
        out += SeriesRef(group.first + "_bucket", entry.first,
                         "le=\"" + FormatBound(h.bounds[i]) + "\"");
        std::snprintf(buf, sizeof buf, " %llu\n",
                      static_cast<unsigned long long>(cumulative));
        out += buf;
      }
      // The +Inf bucket equals the total count by definition (it also
      // absorbs the implicit overflow bucket).
      out += SeriesRef(group.first + "_bucket", entry.first,
                       "le=\"+Inf\"");
      std::snprintf(buf, sizeof buf, " %llu\n",
                    static_cast<unsigned long long>(h.count));
      out += buf;
      out += SeriesRef(group.first + "_sum", entry.first);
      out += ' ';
      json::AppendNumber(&out, h.sum);
      out += '\n';
      out += SeriesRef(group.first + "_count", entry.first);
      std::snprintf(buf, sizeof buf, " %llu\n",
                    static_cast<unsigned long long>(h.count));
      out += buf;
    }
  }
  return out;
}

const char* PrometheusContentType() {
  return "text/plain; version=0.0.4; charset=utf-8";
}

}  // namespace obs
}  // namespace p3gm
