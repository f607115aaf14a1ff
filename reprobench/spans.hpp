// In-memory span recorder for the benchmark's traced pass.
//
// Spans are recorded only from the benchmark's own code, around its calls
// into the library's public functions.  The library's obs::Span is not used
// for them: it records into the process-wide tracer, which would then also
// record the library's own spans (per MC sample, fault test, transient and
// pool task, on every worker thread) and time them into the traced pass.
// Every span carries the operation it belongs to (`op`, the first operation
// index it covers, and `ops`, how many it covers) and the span that caused
// it (`parent`, 0 for a top-level span).  All spans are opened on the
// calling thread, so nesting is a stack.  A disabled log reads no clock and
// stores nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/profile.hpp"

namespace reprobench {

struct Span {
  std::string name;
  std::uint64_t id = 0;      // position in the log + 1
  std::uint64_t parent = 0;  // id of the enclosing span, 0 = top level
  std::uint64_t op = 0;
  std::uint64_t ops = 0;
  std::int64_t start_ns = 0;  // steady_clock, relative to the log's origin
  std::int64_t end_ns = 0;

  double seconds() const { return 1e-9 * static_cast<double>(end_ns - start_ns); }
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  // RAII span: opened on construction, closed on destruction.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::uint64_t op, std::uint64_t ops);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::size_t index_ = 0;
  };

  const std::vector<Span>& spans() const { return spans_; }

  // Chrome trace-event JSON ("X" events on one thread), readable by
  // `sks-report flame` and by Perfetto / chrome://tracing.
  void write_chrome_trace(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // indices into spans_
};

// The spans as the library's call-tree profile (one thread track), which
// gives every span path its total and self time.
sks::obs::Profile profile(const SpanLog& log);

}  // namespace reprobench
