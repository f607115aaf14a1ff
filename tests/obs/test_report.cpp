#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "fault/campaign.hpp"
#include "fault/universe.hpp"
#include "obs/json.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace sks::obs {
namespace {

using namespace sks::units;

TEST(JsonHelpers, EscapeAndNumber) {
  EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(json_number(42.0), "42");
  EXPECT_EQ(json_number(0.5), "0.5");
  // Non-finite values must not poison the document.
  const std::string nan = json_number(std::nan(""));
  EXPECT_NE(Json::parse(nan).kind(), Json::Kind::kNull);
}

TEST(JsonParse, Basics) {
  const Json doc = Json::parse(
      R"({"s": "hi", "n": -1.5e2, "b": true, "z": null, "a": [1, 2]})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("s").str(), "hi");
  EXPECT_DOUBLE_EQ(doc.at("n").number(), -150.0);
  EXPECT_TRUE(doc.at("b").boolean());
  EXPECT_TRUE(doc.at("z").is_null());
  ASSERT_EQ(doc.at("a").array().size(), 2u);
  EXPECT_DOUBLE_EQ(doc.at("a").array()[1].number(), 2.0);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW(doc.at("missing"), Error);
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), Error);
  EXPECT_THROW(Json::parse("{"), Error);
  EXPECT_THROW(Json::parse("[1,]"), Error);
  EXPECT_THROW(Json::parse("{\"a\": 1} trailing"), Error);
  EXPECT_THROW(Json::parse("'single'"), Error);
}

TEST(ReportTest, JsonRoundTripOfAllSections) {
  // Local registry/journal: the test owns all state, nothing global leaks.
  Registry reg;
  reg.counter("runs").inc(3);
  reg.gauge("vmin").set(1.25);
  reg.timer("solve").record_ns(2000);
  reg.histogram("tau", 0.0, 1.0, 4).add(0.3);
  Journal j(8);
  j.record({EventType::kDtHalved, 1e-9, 5e-12, 0, "newton failure"});
  j.record({EventType::kFaultVerdict, 0.0, 0.0, 0, "SON(b): escape \"q\""});

  Report report("unit");
  report.set_meta("bench", "unit-test");
  report.set_value("answer", 42.0);
  report.capture_registry(reg);
  report.capture_journal(j);

  const Json doc = Json::parse(report.to_json());
  EXPECT_EQ(doc.at("report").str(), "unit");
  EXPECT_DOUBLE_EQ(doc.at("schema_version").number(), 1.0);
  EXPECT_EQ(doc.at("meta").at("bench").str(), "unit-test");
  EXPECT_DOUBLE_EQ(doc.at("values").at("answer").number(), 42.0);
  EXPECT_DOUBLE_EQ(doc.at("counters").at("runs").number(), 3.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("vmin").number(), 1.25);
  const Json& solve = doc.at("timers").at("solve");
  EXPECT_DOUBLE_EQ(solve.at("count").number(), 1.0);
  EXPECT_DOUBLE_EQ(solve.at("total_s").number(), 2e-6);
  const Json& tau = doc.at("histograms").at("tau");
  EXPECT_DOUBLE_EQ(tau.at("hi").number(), 1.0);
  EXPECT_EQ(tau.at("counts").array().size(), 4u);
  const Json& journal_section = doc.at("journal");
  EXPECT_DOUBLE_EQ(journal_section.at("recorded").number(), 2.0);
  EXPECT_DOUBLE_EQ(journal_section.at("counts").at("dt_halved").number(), 1.0);
  const auto& events = journal_section.at("events").array();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("type").str(), "dt_halved");
  // The embedded quote survives the escape/parse round trip.
  EXPECT_EQ(events[1].at("detail").str(), "SON(b): escape \"q\"");
}

TEST(ReportTest, JournalOverflowCountsDroppedInJson) {
  // Push the ring well past capacity: the oldest 12 of 20 events fall out,
  // the drop is counted, and the JSON report reflects both the count and
  // the surviving tail.
  Journal j(8);
  for (int i = 0; i < 20; ++i) {
    j.record({EventType::kNewtonConverged, i * 1e-9, 0.0, i, ""});
  }
  EXPECT_EQ(j.size(), 8u);
  EXPECT_EQ(j.dropped(), 12u);
  EXPECT_EQ(j.total_recorded(), 20u);
  const auto tail = j.tail(8);
  ASSERT_EQ(tail.size(), 8u);
  EXPECT_EQ(tail.front().iterations, 12);  // oldest survivor is event #12
  EXPECT_EQ(tail.back().iterations, 19);
  // tail(n) with n > size returns everything, oldest first.
  EXPECT_EQ(j.tail(100).size(), 8u);

  Report report("overflow");
  report.capture_journal(j);
  const Json doc = Json::parse(report.to_json());
  const Json& journal_section = doc.at("journal");
  EXPECT_DOUBLE_EQ(journal_section.at("recorded").number(), 20.0);
  EXPECT_DOUBLE_EQ(journal_section.at("dropped").number(), 12.0);
  EXPECT_DOUBLE_EQ(
      journal_section.at("counts").at("newton_converged").number(), 8.0);
  const auto& events = journal_section.at("events").array();
  ASSERT_EQ(events.size(), tail.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(events[i].at("t").number(), tail[i].t) << i;
    EXPECT_DOUBLE_EQ(events[i].at("iterations").number(),
                     static_cast<double>(tail[i].iterations))
        << i;
  }
}

TEST(ReportTest, JournalCaptureRespectsMaxEvents) {
  Journal j(64);
  for (int i = 0; i < 10; ++i) {
    j.record({EventType::kBreakpoint, i * 1e-9, 0.0, 0, ""});
  }
  Report report("tail-limit");
  report.capture_journal(j, 4);
  const Json doc = Json::parse(report.to_json());
  const Json& journal_section = doc.at("journal");
  // All 10 are counted, only the 4 most recent are embedded.
  EXPECT_DOUBLE_EQ(journal_section.at("recorded").number(), 10.0);
  EXPECT_DOUBLE_EQ(journal_section.at("dropped").number(), 0.0);
  const auto& events = journal_section.at("events").array();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_DOUBLE_EQ(events.front().at("t").number(), 6e-9);
}

TEST(ReportTest, EmptySectionsAreOmitted) {
  Report report("empty");
  const Json doc = Json::parse(report.to_json());
  EXPECT_EQ(doc.at("report").str(), "empty");
  EXPECT_FALSE(doc.has("counters"));
  EXPECT_FALSE(doc.has("timers"));
  EXPECT_FALSE(doc.has("journal"));
}

// Acceptance check: a real (tiny) fault campaign produces a JSON report
// that parses and carries the documented keys with sane values.
TEST(ReportTest, CampaignRunReportMatchesSchema) {
  cell::Technology tech;
  cell::SensorOptions options;
  options.load_y1 = options.load_y2 = 160 * fF;
  cell::ClockPairStimulus stim;
  stim.full_clock = true;
  const auto bench = cell::make_sensor_bench(tech, options, stim);
  // Three node stuck-ats keep the electrical work small.
  std::vector<fault::Fault> universe = {
      fault::Fault::stuck_at1("y1"),
      fault::Fault::stuck_at0("y2"),
      fault::Fault::stuck_at1("n1"),
  };
  fault::TestPlan plan = fault::default_sensor_test_plan(
      bench, tech.interpretation_threshold(), 1);
  plan.dt = 20e-12;
  const auto campaign = fault::run_campaign(bench.circuit, universe, plan);

  const Json doc = Json::parse(campaign.run_report().to_json());
  EXPECT_EQ(doc.at("report").str(), "fault_campaign");
  EXPECT_DOUBLE_EQ(doc.at("schema_version").number(), 1.0);
  const Json& values = doc.at("values");
  EXPECT_DOUBLE_EQ(values.at("faults.total").number(), 3.0);
  EXPECT_GE(values.at("coverage.logic").number(), 0.0);
  EXPECT_LE(values.at("coverage.combined").number(), 1.0);
  EXPECT_GT(values.at("wall_seconds").number(), 0.0);
  EXPECT_GT(values.at("solve.newton_iterations").number(), 0.0);
  EXPECT_GT(values.at("solve.lu_factorizations").number(), 0.0);
  EXPECT_DOUBLE_EQ(values.at("faults.unsimulated").number(), 0.0);
}

}  // namespace
}  // namespace sks::obs
