// The three registry exporters — the run report, a timeline line and the
// Prometheus exposition — render one Registry::snapshot, so for one
// registry state every value they share must agree exactly.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "obs/expose.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/timeline.hpp"

namespace sks::obs {
namespace {

// Exposition body -> {sample name (with labels) -> value, name -> type}.
struct Exposition {
  std::map<std::string, double> samples;
  std::map<std::string, std::string> types;
};

Exposition parse_exposition(const std::string& body) {
  Exposition out;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream type_line(line.substr(7));
      std::string name, type;
      type_line >> name >> type;
      out.types[name] = type;
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    out.samples[line.substr(0, space)] =
        std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

TEST(SnapshotExporters, ReportTimelineAndExpositionAgreeExactly) {
  Registry& reg = registry();
  reg.counter("exporters.runs").inc(7);
  reg.gauge("exporters.vmin").set(1.25);
  reg.timer("exporters.solve").record_ns(2000);
  reg.timer("exporters.solve").record_ns(5000);
  reg.histogram("exporters.tau", 0.0, 1.0, 4).add(0.3);
  for (const double x : {1.0, 2.0, 3.0, 4.0}) {
    reg.stream("exporters.skew").record(x);
  }

  // Same order as the bench drivers: final snapshot, then the report.  The
  // exposition is rendered last; rendering it directly (not through the
  // listener) bumps no counter.
  const std::string path = "test_exporters_timeline.jsonl";
  TimelineOptions options;
  options.path = path;
  timeline().configure(options);
  ASSERT_NE(timeline().snapshot("final"), 0u);
  timeline().disable();
  Report report("exporters");
  report.capture_registry();
  const Exposition prom =
      parse_exposition(render_prometheus(registry(), journal(), tracer()));

  const Json doc = Json::parse(report.to_json());
  std::ifstream in(path, std::ios::binary);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const Json snap = Json::parse(line);
  in.close();
  std::remove(path.c_str());

  const auto number = [](const Json& section, const std::string& name,
                         const char* field) {
    return section.at(name).at(field).number();
  };

  std::size_t counters = 0;
  for (const auto& [name, value] : doc.at("counters").object()) {
    EXPECT_EQ(snap.at("counters").at(name).number(), value.number()) << name;
    const std::string pname = prometheus_name(name);
    EXPECT_EQ(prom.types.at(pname), "counter") << name;
    EXPECT_EQ(prom.samples.at(pname), value.number()) << name;
    ++counters;
  }
  EXPECT_EQ(snap.at("counters").object().size(), counters);
  EXPECT_EQ(doc.at("counters").at("exporters.runs").number(), 7.0);

  std::size_t gauges = 0;
  for (const auto& [name, value] : doc.at("gauges").object()) {
    EXPECT_EQ(snap.at("gauges").at(name).number(), value.number()) << name;
    EXPECT_EQ(prom.samples.at(prometheus_name(name)), value.number()) << name;
    ++gauges;
  }
  EXPECT_EQ(snap.at("gauges").object().size(), gauges);
  EXPECT_EQ(doc.at("gauges").at("exporters.vmin").number(), 1.25);

  const Json& timers = doc.at("timers");
  for (const auto& [name, t] : timers.object()) {
    for (const char* field : {"count", "total_s", "mean_s", "min_s",
                              "max_s"}) {
      EXPECT_EQ(number(snap.at("timers"), name, field),
                t.at(field).number())
          << name << "." << field;
    }
    const std::string pname = prometheus_name(name);
    EXPECT_EQ(prom.types.at(pname), "summary") << name;
    EXPECT_EQ(prom.samples.at(pname + "_count"), t.at("count").number());
    EXPECT_EQ(prom.samples.at(pname + "_sum"), t.at("total_s").number());
  }
  EXPECT_EQ(snap.at("timers").object().size(), timers.object().size());
  EXPECT_EQ(number(timers, "exporters.solve", "count"), 2.0);
  EXPECT_EQ(number(timers, "exporters.solve", "total_s"), 7e-6);

  const Json& streams = doc.at("streams");
  for (const auto& [name, s] : streams.object()) {
    for (const char* field : {"count", "mean", "stddev", "min", "max", "p50",
                              "p90", "p99"}) {
      EXPECT_EQ(number(snap.at("streams"), name, field), s.at(field).number())
          << name << "." << field;
    }
    const std::string pname = prometheus_name(name);
    EXPECT_EQ(prom.samples.at(pname + "_count"), s.at("count").number());
    EXPECT_EQ(prom.samples.at(pname + "{quantile=\"0.5\"}"),
              s.at("p50").number());
    EXPECT_EQ(prom.samples.at(pname + "{quantile=\"0.9\"}"),
              s.at("p90").number());
    EXPECT_EQ(prom.samples.at(pname + "{quantile=\"0.99\"}"),
              s.at("p99").number());
  }
  EXPECT_EQ(snap.at("streams").object().size(), streams.object().size());
  // The exposition carries a stream's mean as its _sum; this stream's
  // values make mean * count exact.
  EXPECT_EQ(number(streams, "exporters.skew", "mean"), 2.5);
  EXPECT_EQ(prom.samples.at("exporters_skew_sum"), 2.5 * 4.0);

  // Histograms are report and timeline sections only.
  const Json& tau = doc.at("histograms").at("exporters.tau");
  const Json& snap_tau = snap.at("histograms").at("exporters.tau");
  ASSERT_EQ(snap_tau.at("counts").array().size(), 4u);
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(snap_tau.at("counts").array()[b].number(),
              tau.at("counts").array()[b].number());
  }
  EXPECT_EQ(prom.types.count("exporters_tau"), 0u);

  // The drop totals all three print come from the same snapshot too.
  EXPECT_EQ(snap.at("journal").at("dropped").number(),
            prom.samples.at("obs_journal_dropped"));
  EXPECT_EQ(snap.at("trace").at("dropped").number(),
            prom.samples.at("obs_trace_dropped"));
}

}  // namespace
}  // namespace sks::obs
