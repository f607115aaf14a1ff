#include "obs/report.hpp"

#include <unistd.h>

#include <fstream>
#include <sstream>
#include <thread>

#include "obs/buildinfo.hpp"
#include "obs/json.hpp"
#include "util/error.hpp"

namespace sks::obs {

void Report::set_meta(const std::string& key, const std::string& value) {
  for (auto& [k, v] : meta_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  meta_.emplace_back(key, value);
}

void Report::set_value(const std::string& key, double value) {
  for (auto& [k, v] : values_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  values_.emplace_back(key, value);
}

void Report::capture_provenance() {
  set_meta("git_sha", buildinfo::kGitSha);
  set_meta("git_dirty", buildinfo::kGitDirty ? "true" : "false");
  set_meta("compiler", buildinfo::kCompiler);
  set_meta("build_type", buildinfo::kBuildType);
  char host[256] = {};
  if (::gethostname(host, sizeof(host) - 1) == 0 && host[0] != '\0') {
    set_meta("hostname", host);
  } else {
    set_meta("hostname", "unknown");
  }
  set_meta("hw_threads",
           std::to_string(std::thread::hardware_concurrency()));
}

void Report::capture_registry(const Registry& reg) {
  Snapshot snap = reg.snapshot();
  snap.journal = snap_.journal;
  snap.trace = snap_.trace;
  snap_ = std::move(snap);
}

void Report::capture_trace(const Tracer& tracer) {
  have_trace_ = true;
  snap_.trace = {tracer.event_count(), tracer.dropped()};
}

void Report::capture_profile(const Tracer& tracer) {
  set_profile(profile_from_tracer(tracer));
}

void Report::set_profile(Profile profile) { profile_ = std::move(profile); }

void Report::capture_journal(const Journal& j, std::size_t max_events) {
  have_journal_ = true;
  snap_.journal = {j.total_recorded(), j.dropped()};
  journal_counts_.clear();
  for (const EventType type :
       {EventType::kNewtonConverged, EventType::kNewtonFallback,
        EventType::kStepRejected, EventType::kDtHalved, EventType::kBreakpoint,
        EventType::kFaultVerdict}) {
    const std::size_t n = j.count(type);
    if (n > 0) journal_counts_.emplace_back(to_string(type), n);
  }
  journal_tail_ = j.tail(max_events);
}

std::string Report::to_json() const {
  std::ostringstream out;
  out << "{\n  \"report\": \"" << json_escape(name_)
      << "\",\n  \"schema_version\": 1";
  if (!meta_.empty()) {
    out << ",\n  \"meta\": {";
    for (std::size_t i = 0; i < meta_.size(); ++i) {
      out << (i == 0 ? "" : ", ") << '"' << json_escape(meta_[i].first)
          << "\": \"" << json_escape(meta_[i].second) << '"';
    }
    out << "}";
  }
  if (!values_.empty()) {
    out << ",\n  \"values\": {";
    for (std::size_t i = 0; i < values_.size(); ++i) {
      out << (i == 0 ? "" : ", ") << '"' << json_escape(values_[i].first)
          << "\": " << json_number(values_[i].second);
    }
    out << "}";
  }
  write_json_sections(out, snap_, ",\n  ", false);

  if (have_journal_) {
    out << ",\n  \"journal\": {\"recorded\": " << snap_.journal.events
        << ", \"dropped\": " << snap_.journal.dropped << ", \"counts\": {";
    for (std::size_t i = 0; i < journal_counts_.size(); ++i) {
      out << (i == 0 ? "" : ", ") << '"' << journal_counts_[i].first
          << "\": " << journal_counts_[i].second;
    }
    out << "}, \"events\": [";
    for (std::size_t i = 0; i < journal_tail_.size(); ++i) {
      const Event& e = journal_tail_[i];
      out << (i == 0 ? "" : ", ") << "{\"type\": \"" << to_string(e.type)
          << "\", \"t\": " << json_number(e.t)
          << ", \"value\": " << json_number(e.value)
          << ", \"iterations\": " << e.iterations << ", \"detail\": \""
          << json_escape(e.detail) << "\"}";
    }
    out << "]}";
  }

  if (have_trace_) {
    out << ",\n  \"trace\": {\"events\": " << snap_.trace.events
        << ", \"dropped\": " << snap_.trace.dropped << "}";
  }

  if (!profile_.empty()) {
    out << ",\n  \"profile\": {\"window_s\": "
        << json_number(static_cast<double>(profile_.window_ns()) * 1e-9)
        << ", \"nodes\": [";
    const auto& nodes = profile_.nodes();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const ProfileNode& n = nodes[i];
      out << (i == 0 ? "" : ", ") << "{\"path\": \"" << json_escape(n.path)
          << "\", \"name\": \"" << json_escape(n.name)
          << "\", \"depth\": " << n.depth << ", \"count\": " << n.count
          << ", \"total_s\": "
          << json_number(static_cast<double>(n.total_ns) * 1e-9)
          << ", \"self_s\": "
          << json_number(static_cast<double>(n.self_ns) * 1e-9)
          << ", \"min_s\": "
          << json_number(static_cast<double>(n.min_ns) * 1e-9)
          << ", \"max_s\": "
          << json_number(static_cast<double>(n.max_ns) * 1e-9)
          << ", \"threads\": {";
      bool first_thread = true;
      for (const auto& [thread, slice] : n.threads) {
        out << (first_thread ? "" : ", ") << '"' << json_escape(thread)
            << "\": {\"count\": " << slice.count << ", \"total_s\": "
            << json_number(static_cast<double>(slice.total_ns) * 1e-9) << "}";
        first_thread = false;
      }
      out << "}}";
    }
    out << "], \"workers\": [";
    const auto& workers = profile_.workers();
    for (std::size_t i = 0; i < workers.size(); ++i) {
      const WorkerUtil& w = workers[i];
      out << (i == 0 ? "" : ", ") << "{\"thread\": \""
          << json_escape(w.thread) << "\", \"spans\": " << w.spans
          << ", \"busy_s\": "
          << json_number(static_cast<double>(w.busy_ns) * 1e-9)
          << ", \"util\": " << json_number(w.util) << "}";
    }
    out << "]}";
  }

  out << "\n}\n";
  return out.str();
}

void Report::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  sks::check(out.good(), "Report: cannot open '", path, "' for writing");
  out << to_json();
  out.flush();
  sks::check(out.good(), "Report: write to '", path, "' failed");
}

}  // namespace sks::obs
