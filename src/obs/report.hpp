// Machine-readable run reports: one Report per run (a bench binary, a
// fault campaign, a Monte-Carlo population) serialized as JSON.
//
// JSON schema (schema_version 1, documented in EXPERIMENTS.md "Run
// telemetry"):
//
//   {
//     "report": "<name>", "schema_version": 1,
//     "meta":     { "<key>": "<string>", ... },
//     "values":   { "<key>": <number>, ... },
//     "counters": ..., "gauges": ..., "timers": ..., "histograms": ...,
//     "streams": ...     — the registry sections, in the one section
//                          schema of obs::write_json_sections (json.hpp)
//                          that timeline lines share,
//     "journal":  { "recorded": n, "dropped": n,
//                   "counts": { "<event_type>": n, ... },
//                   "events": [ { "type": "...", "t": x, "value": x,
//                                 "iterations": n, "detail": "..." }, .. ] },
//     "trace":    { "events": n, "dropped": n },
//     "profile":  { "window_s": s,
//                   "nodes": [ { "path": "a;b;c", "name": "c", "depth": d,
//                                "count": n, "total_s": s, "self_s": s,
//                                "min_s": s, "max_s": s,
//                                "threads": { "<thread>": { "count": n,
//                                             "total_s": s }, ... } }, .. ],
//                   "workers": [ { "thread": "par.worker-0", "spans": n,
//                                  "busy_s": s, "util": u }, ... ] }
//   }
//
// Sections are omitted when empty, so a counters-only report stays small.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace sks::obs {

class Report {
 public:
  explicit Report(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // Free-form annotations (git rev, bench scale, sample counts, ...).
  void set_meta(const std::string& key, const std::string& value);
  void set_value(const std::string& key, double value);

  // Build/host provenance into `meta`: git SHA + dirty flag, compiler and
  // build type (baked at configure time, see obs/buildinfo.hpp.in),
  // hostname and hardware thread count.  Callers layer run-shape keys
  // (threads, lane width) on top via set_meta.
  void capture_provenance();

  // Snapshot every metric currently in the registry / journal.  `max_events`
  // bounds the embedded journal tail; counts cover the whole (bounded)
  // journal.  The journal and trace totals come from capture_journal and
  // capture_trace, in any order with capture_registry.
  void capture_registry(const Registry& reg = registry());
  void capture_journal(const Journal& j = journal(),
                       std::size_t max_events = 64);
  // Trace-buffer saturation summary (span count + drop counter), so a
  // report shows when `--trace-out` silently lost events.
  void capture_trace(const Tracer& tracer = obs::tracer());
  // Aggregate the tracer's spans into a call-tree profile (profile.hpp)
  // embedded as the `profile` section.  Call after writers quiesced; a
  // no-op section when no spans were recorded.
  void capture_profile(const Tracer& tracer = obs::tracer());
  void set_profile(Profile profile);
  const Profile& profile() const { return profile_; }

  std::string to_json() const;

  // Write to `path`; throws sks::Error when the file cannot be written.
  void write_json(const std::string& path) const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::pair<std::string, double>> values_;
  Snapshot snap_;
  bool have_trace_ = false;
  Profile profile_;
  bool have_journal_ = false;
  std::vector<std::pair<std::string, std::size_t>> journal_counts_;
  std::vector<Event> journal_tail_;
};

}  // namespace sks::obs
