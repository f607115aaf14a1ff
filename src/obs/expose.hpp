// Live metrics exposition: an embedded HTTP/1.0 listener that serves the
// process-wide Registry in Prometheus text exposition format 0.0.4, plus
// liveness/readiness probes, so a long-running bench can be scraped
// mid-run instead of only inspected post-hoc through BENCH_*.json.
//
// Endpoints:
//
//   GET /metrics  — counters as `counter`, gauges as `gauge`, TimerStat as
//                   `summary` (`_sum`/`_count` only — timers keep no
//                   quantile state by design), StreamStat as `summary`
//                   with P² p50/p90/p99 quantile lines.  Synthesized at
//                   render time (zero hot-path cost): `obs_run_phase`,
//                   `obs_journal_dropped`, `obs_trace_dropped` gauges, and
//                   a leading `# DROPS journal=N trace=N` warning comment
//                   when telemetry has been lost.
//   GET /healthz  — 200 "ok" while the serve thread is alive (liveness).
//   GET /readyz   — 200 "phase=idle" when no solver phase is active, 503
//                   "phase=dc|transient|campaign" while one is (readiness:
//                   a scraper/load-balancer can tell "between runs" from
//                   "deep in a Newton loop").
//
// Cost model, mirroring ScopedTimer/Span: a disabled exposer costs the hot
// path nothing at all — the run-phase bookkeeping is two relaxed atomic
// ops per outermost phase scope (engine entry points, not per iteration),
// and everything else happens on the listener thread.  The
// `obs.expose_scrapes` counter is bumped per /metrics hit and pinned
// REQUIRED_ZERO by the bench gate, proving scrapes never ride the Newton
// hot path.
//
// Threading: one background thread, single-threaded accept loop, blocking
// HTTP/1.0 request/response with Connection: close.  Each scrape renders
// one Registry::snapshot, so scraping during a parallel campaign is safe
// (values are monotonic but unordered relative to in-flight writers —
// same contract as Registry).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/net.hpp"

namespace sks::obs {

// Coarse run phase for the readiness probe.  Outermost-wins: nested scopes
// (a campaign running transients) keep the phase entered first.
enum class RunPhase { kIdle, kDc, kTransient, kCampaign };

const char* to_string(RunPhase phase);

RunPhase run_phase();

// RAII phase scope for solver entry points (dc_solution, run_transient,
// run_campaign, run_vmin_montecarlo).  Two relaxed atomic RMWs per scope;
// nesting and concurrent scopes are handled with a depth counter — the
// first scope in sets the phase, the last scope out restores kIdle.
class ScopedRunPhase {
 public:
  explicit ScopedRunPhase(RunPhase phase);
  ~ScopedRunPhase();

  ScopedRunPhase(const ScopedRunPhase&) = delete;
  ScopedRunPhase& operator=(const ScopedRunPhase&) = delete;
};

// Render `reg.snapshot(j, tracer)` (the model the run report and the
// timeline render too) plus the current run phase as Prometheus text
// exposition format 0.0.4.  Exposed separately from the listener so tests
// can pin the format without sockets.
std::string render_prometheus(const Registry& reg, const Journal& j,
                              const Tracer& tracer);

// Map a metric name to the Prometheus name charset ([a-zA-Z_:][a-zA-Z0-9_:]*):
// dots and other illegal characters become underscores, a leading digit is
// prefixed.  "solver.lu_refactor" -> "solver_lu_refactor".
std::string prometheus_name(const std::string& name);

class Exposer {
 public:
  Exposer() = default;
  ~Exposer() { stop(); }

  Exposer(const Exposer&) = delete;
  Exposer& operator=(const Exposer&) = delete;

  // Bind 127.0.0.1:`port` (0 = ephemeral) and start the listener thread.
  // Returns the bound port, or 0 on failure — the exposer stays disabled
  // and the error is printed to stderr; a taken port must not kill a
  // bench run.  Calling start() on a running exposer is a no-op returning
  // the current port.
  std::uint16_t start(std::uint16_t port = 0);

  // Stop the listener thread and close the socket (idempotent).
  void stop();

  // One relaxed load — the gate callers may consult freely.
  bool enabled() const { return running_.load(std::memory_order_relaxed); }
  std::uint16_t port() const { return port_; }

 private:
  void serve();
  std::string handle(const std::string& request) const;

  util::net::Socket listener_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::uint16_t port_ = 0;
};

// Process-wide exposer (mirrors registry()/journal()/tracer()); started by
// bench_common when --expose/SKS_EXPOSE is given.
Exposer& exposer();

}  // namespace sks::obs
