// In-memory spans for the traced benchmark runs.
//
// Every span records its name, start, end and the span that caused it
// (parent); spans of one replicate share a replicate id. Spans are recorded
// from the benchmark's own files, around calls into the program's public
// functions, kept in memory, and written out once at exit (Chrome
// trace-event JSON, which Perfetto and chrome://tracing open).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";      // interned by the Tracer (or a literal)
  std::int64_t id = 0;        // unique within the tracer, > 0
  std::int64_t parent = 0;    // 0: a root span
  std::int64_t replicate = 0; // shared by all spans of one replicate
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
};

/// Monotonic clock in nanoseconds (steady_clock).
[[nodiscard]] std::int64_t now_ns();

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] std::int64_t next_id();
  /// A stable C string for `name`, valid for the tracer's lifetime.
  [[nodiscard]] const char* intern(const std::string& name);
  void record(Span span);
  [[nodiscard]] std::vector<Span> spans() const;
  /// Writes every span as a Chrome trace-event "X" event. False on I/O
  /// failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::deque<std::string> names_;
  std::map<std::string, const char*> interned_;
  std::atomic<std::int64_t> next_id_{0};
};

/// RAII span: opens on construction, records on destruction (or end()).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::int64_t parent,
             std::int64_t replicate);
  ~ScopedSpan() { end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int64_t id() const noexcept { return span_.id; }
  void end();

 private:
  Tracer* tracer_;
  Span span_;
};

/// Self time of each span (same order as `spans`): its duration minus the
/// part of its own interval that its direct children cover. Children may
/// nest further (their own children are already inside them) or overlap
/// each other (concurrent workers under one batch span); the covered part
/// is the union of the children's intervals, clipped to the parent.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(
    const std::vector<Span>& spans);

/// Per-name totals over a span set.
struct SpanTotals {
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};
[[nodiscard]] std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans);

}  // namespace perfbench
