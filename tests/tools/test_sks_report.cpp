// The sks-report CLI on files this test writes through the obs exporters:
// print/diff read run reports, timeline/tail read timeline JSONL, and all
// of them share the one section printer and differ.  The binary path is
// baked in by CMake (SKS_REPORT_BIN).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/timeline.hpp"

namespace sks::obs {
namespace {

struct CliResult {
  int exit_code = -1;
  std::string out;
};

CliResult run_cli(const std::string& args) {
  const std::string command =
      std::string(SKS_REPORT_BIN) + " " + args + " 2>&1";
  CliResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    result.out.append(buf, n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

void write_report(const std::string& path, std::uint64_t runs, double vmin) {
  Registry reg;
  reg.counter("cli.runs").inc(runs);
  reg.gauge("cli.vmin").set(vmin);
  for (std::uint64_t i = 1; i <= runs; ++i) {
    reg.timer("cli.solve").record_ns(1000);
    reg.stream("cli.skew").record(static_cast<double>(i));
  }
  Journal j(4);
  j.record({EventType::kDtHalved, 1e-9, 5e-12, 0, "newton failure"});
  Report report("cli");
  report.set_value("answer", vmin);
  report.capture_registry(reg);
  report.capture_journal(j);
  report.write_json(path);
}

// Two snapshots ("start", "final") of the process-wide registry, which
// keeps what earlier calls added.
void write_timeline(const std::string& path, std::uint64_t runs) {
  TimelineOptions options;
  options.path = path;
  timeline().configure(options);
  timeline().snapshot("start");
  registry().counter("cli.timeline_runs").inc(runs);
  registry().stream("cli.timeline_skew").record(static_cast<double>(runs));
  timeline().snapshot("final");
  timeline().disable();
}

// ctest runs each test in its own process, in parallel and in one working
// directory, so every process writes its own files.
std::string own_file(const char* name) {
  return "sks_report_cli_" + std::to_string(::getpid()) + "_" + name;
}

class SksReportCli : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    write_report(report_a(), 3, 1.25);
    write_report(report_b(), 5, 1.5);
    write_timeline(timeline_a(), 2);
    write_timeline(timeline_b(), 4);
  }
  static void TearDownTestSuite() {
    for (const std::string& path :
         {report_a(), report_b(), timeline_a(), timeline_b()}) {
      std::remove(path.c_str());
    }
  }

  static std::string report_a() { return own_file("a.json"); }
  static std::string report_b() { return own_file("b.json"); }
  static std::string timeline_a() { return own_file("a.jsonl"); }
  static std::string timeline_b() { return own_file("b.jsonl"); }
};

TEST_F(SksReportCli, PrintRendersEverySection) {
  const CliResult r = run_cli("print " + report_a());
  ASSERT_EQ(r.exit_code, 0) << r.out;
  for (const char* text : {"report \"cli\"", "values:", "counters:",
                           "cli.runs", "gauges:", "timers (by total):",
                           "cli.solve", "streams:", "cli.skew",
                           "journal: recorded=1 dropped=0"}) {
    EXPECT_NE(r.out.find(text), std::string::npos) << text << "\n" << r.out;
  }
}

TEST_F(SksReportCli, DiffShowsSectionDeltas) {
  const CliResult r =
      run_cli("diff " + report_a() + " " + report_b());
  ASSERT_EQ(r.exit_code, 0) << r.out;
  for (const char* text : {"counters:", "cli.runs = 3 -> 5", "gauges:",
                           "timers:", "cli.solve.count = 3 -> 5",
                           "streams:", "cli.skew.mean = 2 -> 3"}) {
    EXPECT_NE(r.out.find(text), std::string::npos) << text << "\n" << r.out;
  }
}

TEST_F(SksReportCli, TimelineSummarizesAndValidates) {
  const CliResult r = run_cli("timeline " + timeline_a());
  ASSERT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("2 snapshots"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("monotone"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("cli.timeline_skew"), std::string::npos) << r.out;
}

TEST_F(SksReportCli, TimelineDiffComparesFinalSnapshots) {
  const CliResult r =
      run_cli("timeline " + timeline_a() + " " + timeline_b());
  ASSERT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("timeline diff (final snapshots)"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("cli.timeline_runs = 2 -> 6"), std::string::npos)
      << r.out;
}

TEST_F(SksReportCli, TailRendersFinalSnapshot) {
  const CliResult r = run_cli("tail " + timeline_a());
  ASSERT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("\"final\""), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("cli.timeline_runs"), std::string::npos) << r.out;
}

TEST_F(SksReportCli, NonMonotoneTimelineExitsOne) {
  // Real lines, reordered: seq goes 2 then 1.
  std::ifstream in(timeline_a(), std::ios::binary);
  std::string first, second;
  ASSERT_TRUE(std::getline(in, first));
  ASSERT_TRUE(std::getline(in, second));
  const std::string corrupt = own_file("corrupt.jsonl");
  std::ofstream(corrupt, std::ios::binary) << second << "\n" << first << "\n";
  const CliResult r = run_cli("timeline " + corrupt);
  EXPECT_EQ(r.exit_code, 1) << r.out;
  EXPECT_NE(r.out.find("not strictly greater"), std::string::npos) << r.out;
  EXPECT_EQ(run_cli("tail " + corrupt).exit_code, 1);
  std::remove(corrupt.c_str());
}

}  // namespace
}  // namespace sks::obs
