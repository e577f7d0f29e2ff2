// Span-based tracer with Chrome trace_event JSON export (observability
// subsystem, see DESIGN.md "Observability").
//
// A Span is an RAII timing scope: construction stamps a monotonic start time
// and links the span to the innermost open span on the same thread (a
// thread-local stack supplies parent ids); destruction stamps the duration
// and appends the finished record to a per-thread buffer. One mutex
// acquisition per finished span, on a lock that is only ever contended by an
// export/Clear — cheap enough to wrap every engine job and relational kernel
// invocation.
//
// Tracing is off by default: Span construction then does one relaxed atomic
// load and nothing else, which is what keeps fully-instrumented kernels
// within the bench-enforced 5% overhead budget even though the
// instrumentation is always compiled in (bench/bench_obs_overhead.cc).
//
// Export is the Chrome trace_event format ("X" complete events):
//   {"traceEvents": [{"name": ..., "cat": ..., "ph": "X", "ts": <µs>,
//                     "dur": <µs>, "pid": 1, "tid": <n>, "args": {...}}]}
// loadable in chrome://tracing or https://ui.perfetto.dev. Span ids and
// parent links ride in "args"; visual nesting follows ts/dur per tid.
//
// Usage:
//   Tracer::Global().Enable(true);
//   {
//     Span span("stage.partition", "stage");
//     span.SetAttr("jobs", std::to_string(n));
//     ...
//   }
//   Tracer::Global().WriteChromeTrace("trace.json");

#ifndef MUSKETEER_SRC_OBS_TRACE_H_
#define MUSKETEER_SRC_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/status.h"

namespace musketeer {

// One finished span.
struct SpanRecord {
  std::string name;
  std::string category;
  uint64_t id = 0;
  uint64_t parent_id = 0;  // 0 = root span
  int tid = 0;             // tracer-assigned thread index (stable per thread)
  double start_us = 0;     // µs since the tracer's epoch (monotonic clock)
  double dur_us = 0;
  std::vector<std::pair<std::string, std::string>> attrs;
};

class Tracer {
 public:
  // The process-wide tracer every Span reports to.
  static Tracer& Global();

  // Spans started while disabled record nothing (and cost one atomic load).
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Drops every recorded span (keeps thread registrations and the epoch).
  void Clear();

  // Copies out all finished spans, ordered by start time.
  std::vector<SpanRecord> Snapshot() const;

  size_t span_count() const;
  // Spans discarded because a thread hit kMaxSpansPerThread.
  uint64_t dropped() const;

  // The Chrome trace_event JSON document as a string — what /trace serves.
  // Safe to call while tracing is active (exports the spans finished so far).
  std::string ChromeTraceJson() const;

  // Writes ChromeTraceJson() to a file.
  Status WriteChromeTrace(const std::string& path) const;

  // Per-thread buffer cap: a runaway span source degrades to counting drops
  // instead of exhausting memory (long-lived service processes).
  static constexpr size_t kMaxSpansPerThread = 1u << 20;

 private:
  friend class Span;

  struct ThreadLog {
    mutable std::mutex mu;
    std::vector<SpanRecord> spans;  // guarded by mu
    uint64_t dropped = 0;           // guarded by mu
    int tid = 0;
  };

  Tracer();

  // This thread's log, registering it on first use.
  ThreadLog* LocalLog();
  uint64_t NextSpanId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  void Record(SpanRecord record);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  std::atomic<int> next_tid_{0};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  // shared_ptr: a log outlives its thread so late exports still see it.
  std::vector<std::shared_ptr<ThreadLog>> logs_;  // guarded by mu_
};

// RAII span against Tracer::Global(). Records only if tracing was enabled at
// construction. Spans must be destroyed in LIFO order per thread (natural
// for stack-scoped instrumentation); parent links come from that nesting.
class Span {
 public:
  explicit Span(std::string_view name, std::string_view category = "");
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // True when this span is being recorded (tracing was on at construction).
  bool active() const { return active_; }

  // Attaches a key/value shown under "args" in the exported trace. No-op
  // when inactive, so callers may skip building the value:
  //   if (span.active()) span.SetAttr("rows", std::to_string(n));
  void SetAttr(std::string_view key, std::string value);

  // Seconds since construction (monotonic); works even when inactive, so one
  // Span can both trace and feed a latency Histogram.
  double elapsed_seconds() const;

 private:
  SpanRecord record_;
  std::chrono::steady_clock::time_point start_;
  bool active_ = false;
};

}  // namespace musketeer

#endif  // MUSKETEER_SRC_OBS_TRACE_H_
