#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "obs/json.h"

namespace p3gm {
namespace obs {

namespace {

// Owned by the recorder; the thread-local pointer stays valid after the
// owning thread exits (its events survive into the export, which matters
// for short-lived thread-pool workers).
thread_local void* t_buffer = nullptr;

}  // namespace

TraceRecorder& TraceRecorder::Global() {
  // Leaked on purpose, like Registry::Global: per-thread buffers must
  // outlive any late-exiting instrumented thread.
  static TraceRecorder* global = new TraceRecorder();
  return *global;
}

TraceRecorder::ThreadBuffer* TraceRecorder::BufferForThisThread() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->tid = static_cast<std::uint32_t>(buffers_.size());
    t_buffer = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  return static_cast<ThreadBuffer*>(t_buffer);
}

void TraceRecorder::Append(const char* name, std::uint64_t start_ns,
                           std::uint64_t end_ns) {
  Append(name, start_ns, end_ns, TraceContext{});
}

void TraceRecorder::Append(const char* name, std::uint64_t start_ns,
                           std::uint64_t end_ns, const TraceContext& ctx) {
  ThreadBuffer* buffer = BufferForThisThread();
  const std::size_t capacity =
      capacity_per_thread_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(buffer->mutex);
  if (buffer->events.size() >= capacity) {
    ++buffer->dropped;
    return;
  }
  buffer->events.push_back({name, start_ns, end_ns, buffer->tid,
                            ctx.trace_hi, ctx.trace_lo, ctx.span_id,
                            ctx.parent_span_id});
}

const char* TraceRecorder::InternName(const std::string& name) {
  std::lock_guard<std::mutex> lock(intern_mutex_);
  return interned_names_.insert(name).first->c_str();
}

std::vector<TraceRecorder::Event> TraceRecorder::Events() const {
  std::vector<Event> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    out.insert(out.end(), buffer->events.begin(), buffer->events.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Event& a, const Event& b) {
                     return a.tid != b.tid ? a.tid < b.tid
                                           : a.start_ns < b.start_ns;
                   });
  return out;
}

std::size_t TraceRecorder::EventCount() const {
  std::size_t total = 0;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    total += buffer->events.size();
  }
  return total;
}

std::uint64_t TraceRecorder::DroppedCount() const {
  std::uint64_t total = 0;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    total += buffer->dropped;
  }
  return total;
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->events.clear();
    buffer->dropped = 0;
  }
}

void TraceRecorder::SetCapacityPerThread(std::size_t capacity) {
  capacity_per_thread_.store(capacity, std::memory_order_relaxed);
}

std::string TraceRecorder::ToChromeJson() const {
  const std::vector<Event> events = Events();
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  char buf[320];
  for (const Event& e : events) {
    // Span names are string literals (or interned) by contract, but
    // harden the export anyway: a quote or backslash in a name must not
    // corrupt the JSON.
    const std::string name = json::Escape(e.name);
    std::snprintf(buf, sizeof buf,
                  "%s\n  {\"name\": \"%s\", \"cat\": \"p3gm\", "
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                  "\"ts\": %.3f, \"dur\": %.3f",
                  first ? "" : ",", name.c_str(), e.tid,
                  static_cast<double>(e.start_ns) * 1e-3,
                  static_cast<double>(e.end_ns - e.start_ns) * 1e-3);
    out += buf;
    if (e.has_context()) {
      TraceContext ctx;
      ctx.trace_hi = e.trace_hi;
      ctx.trace_lo = e.trace_lo;
      std::snprintf(buf, sizeof buf,
                    ", \"args\": {\"trace_id\": \"%s\", \"span_id\": "
                    "\"%s\", \"parent_id\": \"%s\"}",
                    TraceIdHex(ctx).c_str(), SpanIdHex(e.span_id).c_str(),
                    SpanIdHex(e.parent_id).c_str());
      out += buf;
    }
    out += '}';
    first = false;
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

bool TraceRecorder::WriteChromeJson(const std::string& path) const {
  return json::WriteFile(path, ToChromeJson());
}

}  // namespace obs
}  // namespace p3gm
