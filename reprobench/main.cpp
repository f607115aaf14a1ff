// The reproduction benchmark program.
//
//   reprobench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir D]
//   reprobench --self-test [--out-dir D]
//   reprobench --list-metrics
//
// After a warm-up, a run alternates set-up and rounds of its timed phase
// until S seconds have passed, and reports the median set-up and the mean
// round.  With --trace 0 it prints the end-to-end metrics; with
// --trace 1 it splits S between an untraced and a traced pass and prints the
// per-layer metrics, writing the traced pass's spans as a Chrome trace plus a
// self-time table per layer into the output directory.  The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// See README.md in this directory.

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <regex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "par/pool.hpp"
#include "spans.hpp"
#include "workloads.hpp"

extern char** environ;

namespace reprobench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},      {"cpu_s", "s"},         {"setup_s", "s"},
    {"ops_per_s", "1/s"}, {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"cell.measure.calls", "count"},
    {"cell.measure.busy_s", "s"},
    {"cell.measure.p50_s", "s"},
    {"cell.measure.p90_s", "s"},
    {"cell.find_tau_min.calls", "count"},
    {"cell.find_tau_min.busy_s", "s"},
    {"cell.make_sensor_bench.busy_s", "s"},
    {"esim.newton_calls", "count"},
    {"esim.newton_iterations", "count"},
    {"esim.steps_accepted", "count"},
    {"esim.nr_per_step", "iter/step"},
    {"esim.lu_factorizations", "count"},
    {"esim.lu_refactorizations", "count"},
    {"esim.lu_refactor_share", "ratio"},
    {"esim.newton_failures", "count"},
    {"esim.newton_fail_share", "ratio"},
    {"esim.dt_halvings", "count"},
    {"esim.dc_gmin_steps", "count"},
    {"esim.dc_source_steps", "count"},
    {"esim.batch_lanes", "count"},
    {"esim.batch_fallbacks", "count"},
    {"esim.batch_fallback_share", "ratio"},
    {"scheme.mc.busy_s", "s"},
    {"scheme.mc.samples", "count"},
    {"scheme.mc.sample_mean_s", "s"},
    {"scheme.mc.unsimulated", "count"},
    {"scheme.estimate_probabilities.busy_s", "s"},
    {"fault.universe.busy_s", "s"},
    {"fault.campaign.busy_s", "s"},
    {"fault.good_sim_s", "s"},
    {"fault.fault_mean_s", "s"},
    {"fault.fault_max_s", "s"},
    {"fault.unsimulated", "count"},
    {"clocktree.build.busy_s", "s"},
    {"scheme.placement.busy_s", "s"},
    {"scheme.run.calls", "count"},
    {"scheme.run.busy_s", "s"},
    {"scheme.run.p50_s", "s"},
    {"scheme.run.p90_s", "s"},
    {"scheme.false_alarm.busy_s", "s"},
    {"par.threads", "count"},
    {"par.util", "ratio"},
    {"par.idle_s", "s"},
    {"trace.overhead_s", "s"},
};

// Ratios are printed with their base beside them.
struct RatioDef {
  const char* name;
  const char* numerator;
  const char* denominator;
};
constexpr RatioDef kRatios[] = {
    {"esim.nr_per_step", "esim.newton_iterations", "esim.steps_accepted"},
    {"esim.lu_refactor_share", "esim.lu_refactorizations", "lu_calls"},
    {"esim.newton_fail_share", "esim.newton_failures", "esim.newton_calls"},
    {"esim.batch_fallback_share", "esim.batch_fallbacks", "esim.batch_lanes"},
    {"par.util", "cpu_s", "wall_s*par.threads"},
};

// Set-up runs before the first round and again after every round, each
// time repeated for at least kSetupSliceSeconds and kSetupSliceMinReps times
// but at most kSetupSliceMaxReps times (single set-ups last from
// microseconds to a fraction of a second); setup_s is the median
// repetition.  The minimum gives mc_population, whose set-up takes 0.2 s and
// whose run has three or four rounds, a median of a dozen repetitions.  The
// cap keeps the number of stored samples, and so the process's peak RSS,
// independent of how fast the machine ran.  Spreading the repetitions over
// the whole pass, like the rounds, exposes them to the same machine
// conditions.  The traced pass sets up once per slice, which keeps its trace
// small.
constexpr double kSetupSliceSeconds = 0.1;
constexpr std::size_t kSetupSliceMinReps = 3;
constexpr std::size_t kSetupSliceMaxReps = 100;
// Untimed set-ups before anything is measured: a process that starts on an
// idle machine runs slower for its first fraction of a second.
constexpr double kWarmupSeconds = 1.0;

constexpr std::uint64_t kHeldOutSeed = 1009;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// Round times are reported as the mean round of the timed phase (its total
// round time over its rounds), not the median: on a shared host a round's
// time is bimodal, and which mode holds the median flips between runs, while
// the mean moves with the share of slow rounds.
double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Round counts named *_s are times the library measured; all others are
// work counts, which repeat exactly.
bool is_seconds(const std::string& key) {
  return key.size() > 2 && key.compare(key.size() - 2, 2, "_s") == 0;
}

std::uint64_t batch_counter(const char* name) {
  return sks::obs::registry().counter(name).value();
}

struct Pass {
  std::vector<double> setup_s, wall_s, cpu_s;
  double wall_total_s = 0.0;  // the whole pass: set-ups and rounds
  std::size_t attempted = 0, failed = 0;
  std::map<std::string, Check> failed_checks;  // by name, first occurrence
  std::vector<std::map<std::string, double>> counts;  // per round
  std::uint64_t batch_lanes = 0, batch_fallbacks = 0;  // whole timed phase
};

Pass run_pass(Workload& w, SpanLog& log, double seconds, bool repeat_setup) {
  Pass pass;
  auto set_up = [&] {
    const double slice_start = now_s();
    std::size_t reps = 0;
    do {
      SpanLog::Scope span(log, "bench.setup", pass.setup_s.size(), 0);
      const double t0 = now_s();
      w.setup(log);
      pass.setup_s.push_back(now_s() - t0);
    } while (repeat_setup && ++reps < kSetupSliceMaxReps &&
             (reps < kSetupSliceMinReps ||
              now_s() - slice_start < kSetupSliceSeconds));
  };

  auto round = [&] {
    SpanLog::Scope span(log, "bench.round", pass.attempted, 0);
    const double t0 = now_s();
    const double c0 = cpu_s();
    RoundResult r = w.round(log);
    pass.cpu_s.push_back(cpu_s() - c0);
    pass.wall_s.push_back(now_s() - t0);
    std::size_t failed = r.unfinished;
    for (const Check& c : r.checks) {
      if (c.pass) continue;
      ++failed;  // a failed check is a failed operation
      pass.failed_checks.emplace(c.name, c);
    }
    pass.attempted += r.ops;
    pass.failed += std::min(failed, r.ops);
    pass.counts.push_back(std::move(r.counts));
  };

  const std::uint64_t lanes0 = batch_counter("batch.lanes");
  const std::uint64_t fallbacks0 = batch_counter("batch.fallbacks");
  // The pass stops before a round and set-up as long as the last ones would
  // take it past `seconds`, but runs at least one round.
  const double start = now_s();
  set_up();
  double last = 0.0;
  do {
    const double t0 = now_s();
    round();
    set_up();
    last = now_s() - t0;
  } while (now_s() - start + last <= seconds);
  pass.wall_total_s = now_s() - start;
  pass.batch_lanes = batch_counter("batch.lanes") - lanes0;
  pass.batch_fallbacks = batch_counter("batch.fallbacks") - fallbacks0;
  return pass;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct SpanStats {
  std::size_t roots = 0;  // top-level spans of the phase the name lives in
  std::vector<double> durations;
};

// Per-layer metrics of the traced pass.  Span times are divided by the
// number of top-level spans of their phase, so `busy_s` and `calls` are per
// round, or per set-up for layers that run in set-up.
std::map<std::string, double> layer_metrics(const Pass& untraced,
                                            const Pass& traced,
                                            const SpanLog& log,
                                            std::size_t threads) {
  std::map<std::string, double> m;
  for (const MetricDef& d : kPerLayer) m[d.name] = 0.0;

  const auto& spans = log.spans();
  std::map<std::string, std::size_t> roots;
  std::vector<std::string> root_of(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    root_of[i] = spans[i].parent == 0 ? spans[i].name
                                      : root_of[spans[i].parent - 1];
    if (spans[i].parent == 0) ++roots[spans[i].name];
  }
  std::map<std::string, SpanStats> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == 0) continue;
    SpanStats& s = by_name[spans[i].name];
    s.roots = roots[root_of[i]];
    s.durations.push_back(spans[i].seconds());
  }
  for (const auto& [name, s] : by_name) {
    double busy = 0.0;
    for (const double d : s.durations) busy += d;
    const double per = static_cast<double>(std::max<std::size_t>(s.roots, 1));
    auto set = [&](const std::string& key, double v) {
      if (m.count(key)) m[key] = v;
    };
    set(name + ".calls", static_cast<double>(s.durations.size()) / per);
    set(name + ".busy_s", busy / per);
    set(name + ".p50_s", quantile(s.durations, 0.5));
    set(name + ".p90_s", quantile(s.durations, 0.9));
  }

  // Counts repeat exactly across rounds; library-measured times vary, so
  // those take the median round.
  for (const auto& [key, v] : traced.counts.front()) {
    if (!m.count(key)) continue;
    if (is_seconds(key)) {
      std::vector<double> per_round;
      for (const auto& c : traced.counts) per_round.push_back(c.at(key));
      m[key] = median(per_round);
    } else {
      m[key] = v;
    }
  }
  const double rounds = static_cast<double>(traced.wall_s.size());
  m["esim.batch_lanes"] = static_cast<double>(traced.batch_lanes) / rounds;
  m["esim.batch_fallbacks"] =
      static_cast<double>(traced.batch_fallbacks) / rounds;
  m["esim.nr_per_step"] =
      ratio(m["esim.newton_iterations"], m["esim.steps_accepted"]);
  m["esim.lu_refactor_share"] =
      ratio(m["esim.lu_refactorizations"],
            m["esim.lu_factorizations"] + m["esim.lu_refactorizations"]);
  m["esim.newton_fail_share"] =
      ratio(m["esim.newton_failures"], m["esim.newton_calls"]);
  m["esim.batch_fallback_share"] =
      ratio(m["esim.batch_fallbacks"], m["esim.batch_lanes"]);

  const double wall = mean(untraced.wall_s);
  const double cpu = mean(untraced.cpu_s);
  const auto n = static_cast<double>(threads);
  m["par.threads"] = n;
  m["par.util"] = ratio(cpu, wall * n);
  m["par.idle_s"] = wall * n - cpu;
  m["trace.overhead_s"] = mean(traced.wall_s) - wall;
  return m;
}

// Checks on the trace.  Two hold by construction, because the spans nest on
// one thread in integer nanoseconds: no span has negative self time, and the
// top-level spans (set-ups and rounds) cover the traced pass.  The layer
// check can fail: the layer spans directly inside the rounds must cover
// kLayerCoverage of the rounds' time, so work a round does outside every
// layer span shows.  The work counts repeat in every round of both passes.
constexpr double kLayerCoverage = 0.95;

std::vector<Check> trace_checks(const Pass& untraced, const Pass& traced,
                                const sks::obs::Profile& prof) {
  std::vector<Check> out;
  // Self time without the profile's saturation at 0.
  std::map<std::string, std::int64_t> self_ns;
  for (const auto& n : prof.nodes()) {
    self_ns[n.path] += static_cast<std::int64_t>(n.total_ns);
    const std::size_t cut = n.path.rfind(';');
    if (cut != std::string::npos) {
      self_ns[n.path.substr(0, cut)] -= static_cast<std::int64_t>(n.total_ns);
    }
  }
  std::int64_t min_self = std::numeric_limits<std::int64_t>::max();
  for (const auto& [path, ns] : self_ns) min_self = std::min(min_self, ns);
  out.push_back({"trace.self_time_nonnegative", min_self >= 0,
                 "smallest self time " + std::to_string(min_self) + " ns"});

  double top = 0.0, rounds = 0.0, in_layers = 0.0;
  for (const auto& n : prof.nodes()) {
    const double t = 1e-9 * static_cast<double>(n.total_ns);
    if (n.depth == 0) top += t;
    if (n.path == "bench.round") rounds = t;
    if (n.depth == 1 && n.path.rfind("bench.round;", 0) == 0) in_layers += t;
  }
  const double coverage = top / traced.wall_total_s;
  out.push_back({"trace.top_level_spans_cover_pass", coverage >= 0.99,
                 "top-level spans cover " + std::to_string(100.0 * coverage) +
                     " % of the traced pass"});
  const double layers = ratio(in_layers, rounds);
  out.push_back({"trace.layer_spans_cover_rounds", layers >= kLayerCoverage,
                 "layer spans cover " + std::to_string(100.0 * layers) +
                     " % of the rounds"});

  bool repeat = true;
  for (const Pass* p : {&untraced, &traced}) {
    for (const auto& c : p->counts) {
      for (const auto& [key, v] : c) {
        if (!is_seconds(key) && v != untraced.counts.front().at(key)) {
          repeat = false;
        }
      }
    }
  }
  out.push_back({"trace.counts_repeat", repeat,
                 "work counts identical in every round"});
  return out;
}

void write_self_time_table(const sks::obs::Profile& prof, double traced_wall,
                           const std::string& path) {
  struct Row {
    std::uint64_t spans = 0, total_ns = 0, self_ns = 0;
  };
  std::map<std::string, Row> layers;
  for (const auto& n : prof.nodes()) {
    Row& row = layers[n.name.substr(0, n.name.find('.'))];
    row.spans += n.count;
    row.total_ns += n.total_ns;
    row.self_ns += n.self_ns;
  }
  std::string text = "self time per layer (traced pass)\n";
  char buf[200];
  std::snprintf(buf, sizeof buf, "  %-10s %8s %12s %12s %8s\n", "layer",
                "spans", "total_s", "self_s", "self %");
  text += buf;
  for (const auto& [layer, row] : layers) {
    const double self = 1e-9 * static_cast<double>(row.self_ns);
    std::snprintf(buf, sizeof buf, "  %-10s %8llu %12.6f %12.6f %7.2f%%\n",
                  layer.c_str(), static_cast<unsigned long long>(row.spans),
                  1e-9 * static_cast<double>(row.total_ns), self,
                  100.0 * ratio(self, traced_wall));
    text += buf;
  }
  std::fputs(text.c_str(), stdout);
  std::ofstream(path) << text;
}

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<std::pair<std::string, double>>& values,
                const std::map<std::string, std::string>& units) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", values[i].first.c_str(), values[i].second,
                units.at(values[i].first).c_str());
  }
  std::printf("}}\n");
}

// glibc returns freed heap tops and large blocks to the kernel, so every
// round and set-up faulted its memory in again: about 6000 minor page
// faults per vmin_sweep round.  What those faults cost follows the host's
// memory traffic, not the library, and it made rounds about 8 % slower and
// set-up times drift between runs.  With these limits the process keeps its
// heap and a warm round faults a few pages.
void keep_heap() {
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // glibc's largest allowed value
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
}

void clear_library_environment() {
  // SKS_* variables select solver paths, lane widths, thread counts and
  // telemetry in the library; the benchmark fixes all of them itself.
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SKS_", 4) == 0) {
      names.emplace_back(*e, std::strcspn(*e, "="));
    }
  }
  for (const auto& n : names) unsetenv(n.c_str());
}

int run(const std::string& workload, std::uint64_t seed, double seconds,
        bool trace, const std::string& out_dir) {
  auto w = make_workload(workload, seed);
  sks::par::set_default_threads(w->threads());
  std::printf("reprobench %s seed=%llu seconds=%g trace=%d threads=%zu\n",
              workload.c_str(), static_cast<unsigned long long>(seed), seconds,
              trace ? 1 : 0, w->threads());

  SpanLog off(false);
  for (const double start = now_s(); now_s() - start < kWarmupSeconds;) {
    w->setup(off);
  }
  const Pass untraced =
      run_pass(*w, off, trace ? seconds / 2 : seconds, true);
  const double rss = peak_rss_mb();
  const std::size_t round_ops = untraced.attempted / untraced.wall_s.size();
  const double wall = mean(untraced.wall_s);

  std::vector<std::pair<std::string, double>> values;
  std::map<std::string, std::string> units;
  for (const MetricDef& d : kEndToEnd) units[d.name] = d.unit;
  for (const MetricDef& d : kPerLayer) units[d.name] = d.unit;
  const std::vector<std::pair<std::string, double>> e2e = {
      {"wall_s", wall},
      {"cpu_s", mean(untraced.cpu_s)},
      {"setup_s", median(untraced.setup_s)},
      {"ops_per_s", static_cast<double>(round_ops) / wall},
      {"peak_rss_mb", rss}};
  std::printf("\nend to end (untraced; %zu set-ups, median; %zu rounds of "
              "%zu operations, mean):\n",
              untraced.setup_s.size(), untraced.wall_s.size(), round_ops);
  for (const auto& [name, v] : e2e) {
    std::printf("  %-12s %14.6f %s\n", name.c_str(), v, units[name].c_str());
  }

  std::size_t attempted = untraced.attempted;
  std::size_t failed = untraced.failed;
  std::map<std::string, Check> failed_checks = untraced.failed_checks;
  if (!trace) {
    values = e2e;
  } else {
    SpanLog log(true);
    const Pass traced = run_pass(*w, log, seconds / 2, false);
    attempted += traced.attempted;
    failed += traced.failed;
    failed_checks.insert(traced.failed_checks.begin(),
                         traced.failed_checks.end());
    const sks::obs::Profile prof = profile(log);
    std::printf("\ntrace checks:\n");
    for (const Check& c : trace_checks(untraced, traced, prof)) {
      std::printf("  %s %s: %s\n", c.pass ? "ok  " : "FAIL", c.name.c_str(),
                  c.detail.c_str());
      if (c.pass) continue;
      ++failed;
      failed_checks.emplace(c.name, c);
    }
    const auto layers = layer_metrics(untraced, traced, log, w->threads());
    std::printf("\nper layer (traced pass: %zu set-ups, %zu rounds; per round,"
                " or per set-up for set-up layers):\n",
                traced.setup_s.size(), traced.wall_s.size());
    std::map<std::string, double> bases(layers.begin(), layers.end());
    bases["lu_calls"] =
        layers.at("esim.lu_factorizations") + layers.at("esim.lu_refactorizations");
    bases["cpu_s"] = mean(untraced.cpu_s);
    bases["wall_s*par.threads"] = wall * layers.at("par.threads");
    for (const MetricDef& d : kPerLayer) {
      const double v = layers.at(d.name);
      values.emplace_back(d.name, v);
      std::printf("  %-38s %16.6f %-9s", d.name, v, d.unit);
      for (const RatioDef& r : kRatios) {
        if (std::strcmp(r.name, d.name) == 0) {
          std::printf(" = %s / %s = %.6g / %.6g", r.numerator, r.denominator,
                      bases.at(r.numerator), bases.at(r.denominator));
        }
      }
      std::printf("\n");
    }
    std::filesystem::create_directories(out_dir);
    const std::string stem = out_dir + "/" + workload + "_seed" +
                             std::to_string(seed);
    log.write_chrome_trace(stem + ".trace.json");
    std::printf("\n");
    write_self_time_table(prof, traced.wall_total_s, stem + ".selftime.txt");
    std::printf("trace: %s.trace.json (%zu spans; sks-report flame reads it)\n",
                stem.c_str(), log.spans().size());
  }

  std::printf("\noperations: %zu attempted, %zu failed\n", attempted, failed);
  for (const auto& [name, c] : failed_checks) {
    std::printf("CHECK FAILED %s: %s\n", name.c_str(), c.detail.c_str());
  }
  failed = std::min(failed, attempted);
  print_json(failed_checks.empty() && failed == 0, attempted, failed, values,
             units);
  return 0;
}

int list_metrics() {
  std::printf("{\"end_to_end\": [");
  for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
    std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\"}", i ? ", " : "",
                kEndToEnd[i].name, kEndToEnd[i].unit);
  }
  std::printf("], \"per_layer\": [");
  for (std::size_t i = 0; i < std::size(kPerLayer); ++i) {
    std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\"}", i ? ", " : "",
                kPerLayer[i].name, kPerLayer[i].unit);
  }
  std::printf("], \"workloads\": [");
  for (std::size_t i = 0; i < workload_names().size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", workload_names()[i].c_str());
  }
  std::printf("]}\n");
  return 0;
}

// Self-tests of the benchmark itself: metric names and units are well
// formed; every workload passes every check on a seed held out while the
// benchmark was built (and tree_scheme on Fig. 6's reference seed); every
// check fails when fed a deliberately wrong reference.
int self_test() {
  std::size_t failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  std::printf("metric catalogue:\n");
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  using Defs = std::span<const MetricDef>;
  for (const Defs defs : {Defs(kEndToEnd), Defs(kPerLayer)}) {
    for (const MetricDef& d : defs) {
      const std::string name = d.name;
      expect(std::regex_match(name, name_re) &&
                 std::regex_match(std::string(d.unit), unit_re) &&
                 seen.insert(name).second,
             name + " [" + d.unit + "]");
    }
  }

  std::vector<std::pair<std::string, std::uint64_t>> cases;
  for (const auto& name : workload_names()) cases.emplace_back(name, kHeldOutSeed);
  cases.emplace_back("tree_scheme", kFig6ReferenceSeed);
  for (const auto& [name, seed] : cases) {
    std::printf("%s, seed %llu:\n", name.c_str(),
                static_cast<unsigned long long>(seed));
    auto w = make_workload(name, seed);
    sks::par::set_default_threads(w->threads());
    SpanLog off(false);
    w->setup(off);
    const RoundResult r = w->round(off);
    expect(r.unfinished == 0, "every operation completed");
    for (const Check& c : r.checks) expect(c.pass, c.name + ": " + c.detail);
    for (const auto& [target, checks] : w->wrong_reference_checks()) {
      bool target_failed = false;
      for (const Check& c : checks) {
        if (c.name == target && !c.pass) target_failed = true;
      }
      expect(target_failed, "wrong reference fails " + target);
    }
  }
  std::printf("self-test: %zu failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace reprobench

int main(int argc, char** argv) {
  using namespace reprobench;
  std::string workload, out_dir = "reprobench-out";
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  bool have_seed = false, self = false, list = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--workload") {
        workload = value();
      } else if (a == "--seed") {
        seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        seconds = std::stod(value());
      } else if (a == "--trace") {
        trace = std::stoi(value());
      } else if (a == "--out-dir") {
        out_dir = value();
      } else if (a == "--self-test") {
        self = true;
      } else if (a == "--list-metrics") {
        list = true;
      } else {
        throw std::invalid_argument("unknown argument " + a);
      }
    }
    clear_library_environment();
    keep_heap();
    sks::obs::set_enabled(false);
    if (list) return list_metrics();
    if (self) return self_test();
    if (workload.empty() || !have_seed || !(seconds > 0.0) ||
        (trace != 0 && trace != 1)) {
      throw std::invalid_argument(
          "usage: reprobench --workload NAME --seed N --seconds S --trace 0|1");
    }
    return run(workload, seed, seconds, trace == 1, out_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "reprobench: %s\n", e.what());
    return 2;
  }
}
