#include "spans.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace reprobench {

SpanLog::SpanLog(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

SpanLog::Scope::Scope(SpanLog& log, const char* name, std::uint64_t op,
                      std::uint64_t ops)
    : log_(log) {
  if (!log_.enabled_) return;
  Span span;
  span.name = name;
  span.id = log_.spans_.size() + 1;
  span.parent = log_.open_.empty() ? 0 : log_.spans_[log_.open_.back()].id;
  span.op = op;
  span.ops = ops;
  index_ = log_.spans_.size();
  log_.open_.push_back(index_);
  log_.spans_.push_back(std::move(span));
  log_.spans_[index_].start_ns = log_.now_ns();
}

SpanLog::Scope::~Scope() {
  if (!log_.enabled_) return;
  log_.spans_[index_].end_ns = log_.now_ns();
  log_.open_.pop_back();
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n"
      << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
         "\"args\": {\"name\": \"reprobench\"}}";
  // Times in microseconds.  The extra half nanosecond keeps readers that
  // truncate ts * 1000 to integer nanoseconds from landing one below, which
  // would nest a span under the one that ended just before it.
  auto us = [](std::int64_t ns) { return (static_cast<double>(ns) + 0.5) / 1e3; };
  char buf[160];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof buf,
                  "\"ts\": %.4f, \"dur\": %.4f, \"args\": {\"span\": %llu, "
                  "\"parent\": %llu, \"op\": %llu, \"ops\": %llu}}",
                  us(s.start_ns), us(s.end_ns - s.start_ns),
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.op),
                  static_cast<unsigned long long>(s.ops));
    out << ",\n{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, " << buf;
  }
  out << "\n]}\n";
  if (!out.flush()) throw std::runtime_error("cannot write trace " + path);
}

sks::obs::Profile profile(const SpanLog& log) {
  std::vector<sks::obs::ProfileSpan> spans;
  spans.reserve(log.spans().size());
  for (const Span& s : log.spans()) {
    spans.push_back({"reprobench", s.name, static_cast<std::uint64_t>(s.start_ns),
                     static_cast<std::uint64_t>(s.end_ns - s.start_ns)});
  }
  return sks::obs::build_profile(std::move(spans));
}

}  // namespace reprobench
