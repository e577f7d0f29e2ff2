#include "src/obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "src/base/json.h"

namespace musketeer {

namespace {

// Innermost open span per thread; parent of the next span started here.
thread_local std::vector<uint64_t> t_span_stack;

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::ThreadLog* Tracer::LocalLog() {
  // shared_ptr: the tracer holds the other reference, so a log outlives its
  // thread and late exports still see it.
  thread_local std::shared_ptr<ThreadLog> log;
  if (log == nullptr) {
    log = std::make_shared<ThreadLog>();
    log->tid = next_tid_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::lock_guard lock(mu_);
    logs_.push_back(log);
  }
  return log.get();
}

void Tracer::Record(SpanRecord record) {
  ThreadLog* log = LocalLog();
  record.tid = log->tid;
  std::lock_guard lock(log->mu);
  if (log->spans.size() >= kMaxSpansPerThread) {
    ++log->dropped;
    return;
  }
  log->spans.push_back(std::move(record));
}

void Tracer::Clear() {
  std::lock_guard lock(mu_);
  for (const auto& log : logs_) {
    std::lock_guard log_lock(log->mu);
    log->spans.clear();
    log->dropped = 0;
  }
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::vector<SpanRecord> out;
  {
    std::lock_guard lock(mu_);
    for (const auto& log : logs_) {
      std::lock_guard log_lock(log->mu);
      out.insert(out.end(), log->spans.begin(), log->spans.end());
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return a.start_us < b.start_us;
                   });
  return out;
}

size_t Tracer::span_count() const {
  std::lock_guard lock(mu_);
  size_t n = 0;
  for (const auto& log : logs_) {
    std::lock_guard log_lock(log->mu);
    n += log->spans.size();
  }
  return n;
}

uint64_t Tracer::dropped() const {
  std::lock_guard lock(mu_);
  uint64_t n = 0;
  for (const auto& log : logs_) {
    std::lock_guard log_lock(log->mu);
    n += log->dropped;
  }
  return n;
}

std::string Tracer::ChromeTraceJson() const {
  std::vector<SpanRecord> spans = Snapshot();
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[64];
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::string args = "{\"span_id\": \"" + std::to_string(s.id) +
                       "\", \"parent_id\": \"" + std::to_string(s.parent_id) +
                       "\"";
    for (const auto& [key, value] : s.attrs) {
      args += ", " + JsonQuote(key) + ": " + JsonQuote(value);
    }
    args += "}";
    out += "  {\"name\": " + JsonQuote(s.name) + ", \"cat\": " +
           JsonQuote(s.category.empty() ? "span" : s.category) +
           ", \"ph\": \"X\", \"ts\": ";
    std::snprintf(buf, sizeof(buf), "%.3f", s.start_us);
    out += buf;
    out += ", \"dur\": ";
    std::snprintf(buf, sizeof(buf), "%.3f", s.dur_us);
    out += buf;
    out += ", \"pid\": 1, \"tid\": " + std::to_string(s.tid) +
           ", \"args\": " + args + "}";
    out += i + 1 < spans.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::string json = ChromeTraceJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return InternalError("cannot open trace output file '" + path + "'");
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  if (std::fclose(f) != 0 || written != json.size()) {
    return InternalError("error writing trace output file '" + path + "'");
  }
  return OkStatus();
}

// ---- Span ------------------------------------------------------------------

Span::Span(std::string_view name, std::string_view category)
    : start_(std::chrono::steady_clock::now()) {
  Tracer& tracer = Tracer::Global();
  if (!tracer.enabled()) {
    return;
  }
  active_ = true;
  record_.name.assign(name.data(), name.size());
  record_.category.assign(category.data(), category.size());
  record_.id = tracer.NextSpanId();
  record_.parent_id = t_span_stack.empty() ? 0 : t_span_stack.back();
  record_.start_us = std::chrono::duration<double, std::micro>(
                         start_ - tracer.epoch_)
                         .count();
  t_span_stack.push_back(record_.id);
}

Span::~Span() {
  if (!active_) {
    return;
  }
  record_.dur_us = std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - start_)
                       .count();
  // LIFO discipline: this span is the innermost open span on this thread.
  if (!t_span_stack.empty() && t_span_stack.back() == record_.id) {
    t_span_stack.pop_back();
  }
  Tracer::Global().Record(std::move(record_));
}

void Span::SetAttr(std::string_view key, std::string value) {
  if (!active_) {
    return;
  }
  record_.attrs.emplace_back(std::string(key), std::move(value));
}

double Span::elapsed_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

}  // namespace musketeer
