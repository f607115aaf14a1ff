#include "obs/expose.hpp"

#include <cctype>
#include <cstdio>
#include <sstream>
#include <utility>

#include "obs/json.hpp"

namespace sks::obs {

namespace {

// Run-phase state shared by every ScopedRunPhase.  A depth counter makes
// nesting (campaign -> transient -> dc) and concurrent worker scopes
// outermost-wins without a lock: the first scope in names the phase, the
// last scope out restores idle.  A worker's nested dc solve inside a
// campaign therefore never flips the probe to "dc" — the campaign owns
// the phase for its duration, which is the granularity a readiness check
// cares about.
std::atomic<int> g_phase{static_cast<int>(RunPhase::kIdle)};
std::atomic<int> g_phase_depth{0};

constexpr const char* kContentTypeMetrics =
    "text/plain; version=0.0.4; charset=utf-8";
constexpr const char* kContentTypePlain = "text/plain; charset=utf-8";

std::string http_response(int status, const char* reason,
                          const char* content_type, const std::string& body) {
  std::ostringstream out;
  out << "HTTP/1.0 " << status << ' ' << reason << "\r\n"
      << "Content-Type: " << content_type << "\r\n"
      << "Content-Length: " << body.size() << "\r\n"
      << "Connection: close\r\n\r\n"
      << body;
  return out.str();
}

void append_summary(std::string& out, const std::string& pname,
                    const stream::StreamSummary* quantiles, double sum,
                    std::uint64_t count) {
  out += "# TYPE " + pname + " summary\n";
  if (quantiles != nullptr) {
    out += pname + "{quantile=\"0.5\"} " + json_number(quantiles->p50()) +
           "\n";
    out += pname + "{quantile=\"0.9\"} " + json_number(quantiles->p90()) +
           "\n";
    out += pname + "{quantile=\"0.99\"} " + json_number(quantiles->p99()) +
           "\n";
  }
  out += pname + "_sum " + json_number(sum) + "\n";
  out += pname + "_count " + std::to_string(count) + "\n";
}

}  // namespace

const char* to_string(RunPhase phase) {
  switch (phase) {
    case RunPhase::kIdle:
      return "idle";
    case RunPhase::kDc:
      return "dc";
    case RunPhase::kTransient:
      return "transient";
    case RunPhase::kCampaign:
      return "campaign";
  }
  return "idle";
}

RunPhase run_phase() {
  return static_cast<RunPhase>(g_phase.load(std::memory_order_relaxed));
}

ScopedRunPhase::ScopedRunPhase(RunPhase phase) {
  if (g_phase_depth.fetch_add(1, std::memory_order_relaxed) == 0) {
    g_phase.store(static_cast<int>(phase), std::memory_order_relaxed);
  }
}

ScopedRunPhase::~ScopedRunPhase() {
  if (g_phase_depth.fetch_sub(1, std::memory_order_relaxed) == 1) {
    g_phase.store(static_cast<int>(RunPhase::kIdle),
                  std::memory_order_relaxed);
  }
}

std::string prometheus_name(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty()) out = "_";
  if (out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  return out;
}

std::string render_prometheus(const Registry& reg, const Journal& j,
                              const Tracer& tracer) {
  const Snapshot snap = reg.snapshot(j, tracer);
  std::string out;
  out.reserve(4096);

  const std::string journal_dropped = std::to_string(snap.journal.dropped);
  const std::string trace_dropped = std::to_string(snap.trace.dropped);
  if (snap.journal.dropped > 0 || snap.trace.dropped > 0) {
    // Non-standard but comment-legal warning line: scrapers that only
    // want a cheap "are we losing telemetry" check can grep for it
    // without parsing the gauge lines below.
    out += "# DROPS journal=" + journal_dropped + " trace=" + trace_dropped +
           "\n";
  }

  for (const auto& [name, value] : snap.counters) {
    const std::string pname = prometheus_name(name);
    out += "# TYPE " + pname + " counter\n";
    out += pname + " " + std::to_string(value) + "\n";
  }

  for (const auto& [name, value] : snap.gauges) {
    const std::string pname = prometheus_name(name);
    out += "# TYPE " + pname + " gauge\n";
    out += pname + " " + json_number(value) + "\n";
  }

  // Synthesized at render time so the hot path never maintains them:
  // phase for the readiness story, drop totals so a scraper can alert on
  // telemetry loss before the post-run report would have shown it.
  out += "# TYPE obs_run_phase gauge\n";
  out += "obs_run_phase " +
         std::to_string(static_cast<int>(run_phase())) + "\n";
  out += "# TYPE obs_journal_dropped gauge\n";
  out += "obs_journal_dropped " + journal_dropped + "\n";
  out += "# TYPE obs_trace_dropped gauge\n";
  out += "obs_trace_dropped " + trace_dropped + "\n";

  // Timers keep count/total/min/max only (no quantile state on the hot
  // path by design) — expose the summary skeleton Prometheus still
  // understands: _sum in seconds plus _count.
  for (const auto& [name, t] : snap.timers) {
    append_summary(out, prometheus_name(name), nullptr, t.total_s(), t.count);
  }

  for (const auto& [name, summary] : snap.streams) {
    append_summary(out, prometheus_name(name), &summary,
                   summary.mean() * static_cast<double>(summary.count()),
                   summary.count());
  }

  return out;
}

std::uint16_t Exposer::start(std::uint16_t port) {
  if (running_.load(std::memory_order_relaxed)) return port_;
  std::string error;
  std::uint16_t bound = 0;
  listener_ = util::net::listen_tcp(port, &bound, &error);
  if (!listener_.valid()) {
    std::fprintf(stderr, "[expose] listener disabled: %s\n", error.c_str());
    return 0;
  }
  port_ = bound;
  stop_requested_.store(false, std::memory_order_relaxed);
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { serve(); });
  return port_;
}

void Exposer::stop() {
  if (!thread_.joinable()) return;
  stop_requested_.store(true, std::memory_order_relaxed);
  thread_.join();
  listener_.close();
  running_.store(false, std::memory_order_relaxed);
  port_ = 0;
}

void Exposer::serve() {
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    util::net::Socket conn = util::net::accept_tcp(listener_, 200);
    if (!conn.valid()) continue;
    const std::string request = util::net::recv_some(conn, 4096, 1000);
    if (request.empty()) continue;
    util::net::send_all(conn, handle(request));
  }
}

std::string Exposer::handle(const std::string& request) const {
  // "GET <path> HTTP/1.x" — anything else is a bad request.  HTTP/1.0
  // semantics: one request per connection, Connection: close.
  std::istringstream line(request);
  std::string method, path;
  line >> method >> path;
  if (method != "GET" || path.empty()) {
    return http_response(400, "Bad Request", kContentTypePlain,
                         "bad request\n");
  }
  // Strip any query string; scrapers commonly append cache-busters.
  const std::size_t q = path.find('?');
  if (q != std::string::npos) path.resize(q);

  if (path == "/metrics") {
    // Bump before rendering so the scrape the client is reading already
    // includes itself — the same self-consistency rule the timeline uses
    // for its snapshot counter.  (Report captures happen before any
    // post-run scrape, so CI's counter-equality check excludes this one
    // counter.)
    registry().counter("obs.expose_scrapes").inc();
    return http_response(200, "OK", kContentTypeMetrics,
                         render_prometheus(registry(), journal(),
                                           obs::tracer()));
  }
  if (path == "/healthz") {
    return http_response(200, "OK", kContentTypePlain, "ok\n");
  }
  if (path == "/readyz") {
    const RunPhase phase = run_phase();
    const std::string body =
        std::string("phase=") + to_string(phase) + "\n";
    if (phase == RunPhase::kIdle) {
      return http_response(200, "OK", kContentTypePlain, body);
    }
    return http_response(503, "Service Unavailable", kContentTypePlain,
                         body);
  }
  return http_response(404, "Not Found", kContentTypePlain, "not found\n");
}

Exposer& exposer() {
  static Exposer instance;
  return instance;
}

}  // namespace sks::obs
