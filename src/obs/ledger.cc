#include "obs/ledger.h"

#include <utility>

#include "obs/json.h"

namespace p3gm {
namespace obs {

namespace {

thread_local const char* t_phase = nullptr;

}  // namespace

PrivacyLedger& PrivacyLedger::Global() {
  // Leaked on purpose, like Registry::Global: entries may be recorded by
  // accountants unwinding late in process teardown.
  static PrivacyLedger* global = new PrivacyLedger();
  return *global;
}

void PrivacyLedger::SetDelta(double delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  delta_ = delta;
}

double PrivacyLedger::delta() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return delta_;
}

void PrivacyLedger::Record(LedgerEntry entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.push_back(std::move(entry));
}

std::vector<LedgerEntry> PrivacyLedger::Entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_;
}

std::size_t PrivacyLedger::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

double PrivacyLedger::CumulativeEpsilon() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.empty() ? 0.0 : entries_.back().cumulative_epsilon;
}

void PrivacyLedger::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

std::string PrivacyLedger::ToCsv() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out =
      "index,run,phase,mechanism,count,sigma,sampling_rate,pure_eps,"
      "cumulative_epsilon,best_order,delta\n";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const LedgerEntry& e = entries_[i];
    out += std::to_string(i) + "," + std::to_string(e.run) + "," + e.phase +
           "," + e.mechanism + "," + std::to_string(e.count);
    for (const double v : {e.sigma, e.sampling_rate, e.pure_eps,
                           e.cumulative_epsilon, e.best_order, e.delta}) {
      out += ',';
      json::AppendNumber(&out, v);
    }
    out += '\n';
  }
  return out;
}

std::string PrivacyLedger::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"entries\": [";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const LedgerEntry& e = entries_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"index\": " + std::to_string(i) +
           ", \"run\": " + std::to_string(e.run) + ", \"phase\": \"" +
           json::Escape(e.phase) + "\", \"mechanism\": \"" +
           json::Escape(e.mechanism) +
           "\", \"count\": " + std::to_string(e.count);
    const std::pair<const char*, double> fields[] = {
        {"sigma", e.sigma},
        {"sampling_rate", e.sampling_rate},
        {"pure_eps", e.pure_eps},
        {"cumulative_epsilon", e.cumulative_epsilon},
        {"best_order", e.best_order},
        {"delta", e.delta}};
    for (const auto& [key, v] : fields) {
      out += ", \"";
      out += key;
      out += "\": ";
      json::AppendNumber(&out, v);
    }
    out += ", \"rdp_orders\": [";
    for (std::size_t j = 0; j < e.rdp_orders.size(); ++j) {
      if (j > 0) out += ", ";
      json::AppendNumber(&out, e.rdp_orders[j]);
    }
    out += "], \"rdp_cost\": [";
    for (std::size_t j = 0; j < e.rdp_cost.size(); ++j) {
      if (j > 0) out += ", ";
      json::AppendNumber(&out, e.rdp_cost[j]);
    }
    out += "]}";
  }
  out += entries_.empty() ? "]}\n" : "\n]}\n";
  return out;
}

bool PrivacyLedger::WriteCsv(const std::string& path) const {
  return json::WriteFile(path, ToCsv());
}

bool PrivacyLedger::WriteJson(const std::string& path) const {
  return json::WriteFile(path, ToJson());
}

PhaseScope::PhaseScope(const char* phase) : previous_(t_phase) {
  t_phase = phase;
}

PhaseScope::~PhaseScope() { t_phase = previous_; }

const char* PhaseScope::Current() {
  return t_phase == nullptr ? "" : t_phase;
}

}  // namespace obs
}  // namespace p3gm
