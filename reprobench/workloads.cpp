#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <set>
#include <stdexcept>

#include "cell/measure.hpp"
#include "clocktree/buffering.hpp"
#include "clocktree/dme.hpp"
#include "clocktree/htree.hpp"
#include "esim/batch.hpp"
#include "fault/campaign.hpp"
#include "fault/universe.hpp"
#include "obs/metrics.hpp"
#include "scheme/behavioral_sensor.hpp"
#include "scheme/montecarlo.hpp"
#include "scheme/scheme.hpp"
#include "util/prng.hpp"

namespace reprobench {
namespace {

using Scope = SpanLog::Scope;

constexpr double kFf = 1e-15;
constexpr double kNs = 1e-9;
constexpr double kLoads[3] = {80 * kFf, 160 * kFf, 240 * kFf};

std::string fmt(const char* format, double a, double b = 0.0, double c = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof buf, format, a, b, c);
  return buf;
}

std::string load_tag(int li) {
  return std::to_string(static_cast<int>(std::lround(kLoads[li] / kFf))) + "fF";
}

void add_solve_counts(std::map<std::string, double>& counts,
                      const sks::esim::SolveStats& s) {
  auto add = [&](const char* name, std::uint64_t v) {
    counts[name] += static_cast<double>(v);
  };
  add("esim.newton_calls", s.newton_calls);
  add("esim.newton_iterations", s.newton_iterations);
  add("esim.newton_failures", s.newton_failures);
  add("esim.steps_accepted", s.steps_accepted);
  add("esim.lu_factorizations", s.lu_factorizations);
  add("esim.lu_refactorizations", s.lu_refactorizations);
  add("esim.dt_halvings", s.dt_halvings);
  add("esim.dc_gmin_steps", s.dc_gmin_steps);
  add("esim.dc_source_steps", s.dc_source_steps);
}

// The esim.* registry counters that every public solve mirrors its
// SolveStats into.  cell::find_tau_min returns no stats, so its solver work
// is read as the difference of these counters around the call (the
// workloads that call it do so from one thread).  dc_*_steps are not
// mirrored and stay out of that difference.
sks::esim::SolveStats registry_solve_counts() {
  auto& reg = sks::obs::registry();
  sks::esim::SolveStats s;
  s.newton_calls = reg.counter("esim.newton_calls").value();
  s.newton_iterations = reg.counter("esim.newton_iterations").value();
  s.newton_failures = reg.counter("esim.newton_failures").value();
  s.steps_accepted = reg.counter("esim.steps_accepted").value();
  s.lu_factorizations = reg.counter("esim.lu_factorizations").value();
  s.lu_refactorizations = reg.counter("esim.lu_refactorizations").value();
  s.dt_halvings = reg.counter("esim.dt_halvings").value();
  return s;
}

sks::esim::SolveStats difference(const sks::esim::SolveStats& after,
                                 const sks::esim::SolveStats& before) {
  sks::esim::SolveStats d;
  d.newton_calls = after.newton_calls - before.newton_calls;
  d.newton_iterations = after.newton_iterations - before.newton_iterations;
  d.newton_failures = after.newton_failures - before.newton_failures;
  d.steps_accepted = after.steps_accepted - before.steps_accepted;
  d.lu_factorizations = after.lu_factorizations - before.lu_factorizations;
  d.lu_refactorizations =
      after.lu_refactorizations - before.lu_refactorizations;
  d.dt_halvings = after.dt_halvings - before.dt_halvings;
  return d;
}

// ---------------------------------------------------------------- vmin_sweep

constexpr double kSlews[3] = {0.1 * kNs, 0.2 * kNs, 0.4 * kNs};
constexpr std::size_t kTaus = 16;
constexpr double kTauMax = 0.30 * kNs;
constexpr double kSweepDt = 5e-12;  // as bench/fig4_vmin_vs_skew

// EXPERIMENTS.md, Fig. 4: tau_min per load (slew 0.2 ns); the table there
// also records a spread below 8 % across the 0.1-0.4 ns slews.
struct VminReference {
  double tau_min[3] = {0.062 * kNs, 0.111 * kNs, 0.163 * kNs};
  double tau_min_rel_tol = 0.10;
  double monotone_tol_v = 1e-3;  // V_min(tau) may dip by this much
};

class VminSweep final : public Workload {
 public:
  explicit VminSweep(std::uint64_t seed) {
    // Stratified skews: one per 0.30/16 ns slot, jittered by the seed.
    sks::util::Prng prng(seed);
    for (std::size_t k = 0; k < kTaus; ++k) {
      taus_.push_back((static_cast<double>(k) + prng.uniform01()) * kTauMax /
                      static_cast<double>(kTaus));
    }
  }

  std::size_t threads() const override { return 1; }

  void setup(SpanLog& log) override {
    benches_.clear();
    std::uint64_t op = 0;
    for (int li = 0; li < 3; ++li) {
      for (int si = 0; si < 3; ++si) {
        for (const double tau : taus_) {
          Scope span(log, "cell.make_sensor_bench", op++, 1);
          benches_.push_back(sks::cell::make_sensor_bench(
              tech_, options(li), stimulus(si, tau)));
        }
      }
    }
  }

  RoundResult round(SpanLog& log) override {
    RoundResult r;
    const double vth = tech_.interpretation_threshold();
    sks::esim::SolveStats solve;
    std::uint64_t op = 0;
    for (std::size_t i = 0; i < benches_.size(); ++i) {
      Scope span(log, "cell.measure", op++, 1);
      sks::esim::SolveStats stats;
      try {
        vmin_[i] = sks::cell::measure_bench(benches_[i], vth, kSweepDt, &stats)
                       .vmin_y2;
      } catch (const std::exception&) {
        vmin_[i] = std::nan("");
        ++r.unfinished;
      }
      solve.merge(stats);
    }
    const auto before = registry_solve_counts();
    for (int li = 0; li < 3; ++li) {
      for (int si = 0; si < 3; ++si) {
        Scope span(log, "cell.find_tau_min", op++, 1);
        try {
          tau_min_[li][si] = sks::cell::find_tau_min(
              tech_, options(li), stimulus(si, 0.0), 0.0, 1 * kNs, 5e-13,
              kSweepDt);
        } catch (const std::exception&) {
          tau_min_[li][si] = std::nan("");
          ++r.unfinished;
        }
      }
    }
    add_solve_counts(r.counts, solve);
    add_solve_counts(r.counts, difference(registry_solve_counts(), before));
    r.ops = op;
    r.checks = check(VminReference{});
    return r;
  }

  std::vector<std::pair<std::string, std::vector<Check>>>
  wrong_reference_checks() const override {
    VminReference low_tau;
    for (double& t : low_tau.tau_min) t *= 0.5;
    // A negative tolerance demands a strict rise of at least 0.5 V per
    // 19 ps slot, which the measured curves do not show.
    VminReference steep;
    steep.monotone_tol_v = -0.5;
    return {{"fig4.tau_min.80fF.slew0.1ns", check(low_tau)},
            {"fig4.monotone.80fF.slew0.1ns", check(steep)}};
  }

 private:
  sks::cell::SensorOptions options(int li) const {
    sks::cell::SensorOptions opt;
    opt.load_y1 = opt.load_y2 = kLoads[li];
    return opt;
  }
  static sks::cell::ClockPairStimulus stimulus(int si, double tau) {
    sks::cell::ClockPairStimulus stim;
    stim.skew = tau;
    stim.slew1 = stim.slew2 = kSlews[si];
    return stim;
  }
  static std::string curve_tag(int li, int si) {
    return load_tag(li) + ".slew" + fmt("%.1f", kSlews[si] / kNs) + "ns";
  }

  std::vector<Check> check(const VminReference& ref) const {
    std::vector<Check> out;
    for (int li = 0; li < 3; ++li) {
      for (int si = 0; si < 3; ++si) {
        const double* v = &vmin_[(li * 3 + si) * kTaus];
        double worst_dip = -1e300;
        for (std::size_t k = 1; k < kTaus; ++k) {
          worst_dip = std::max(worst_dip, v[k - 1] - v[k]);
        }
        // NaN fails every comparison, so an unfinished point fails here.
        out.push_back({"fig4.monotone." + curve_tag(li, si),
                       worst_dip <= ref.monotone_tol_v,
                       fmt("largest V_min dip %.4f V", worst_dip)});
        const double t = tau_min_[li][si];
        out.push_back(
            {"fig4.tau_min." + curve_tag(li, si),
             std::fabs(t - ref.tau_min[li]) <=
                 ref.tau_min_rel_tol * ref.tau_min[li],
             fmt("tau_min %.4f ns vs %.4f ns", t / kNs, ref.tau_min[li] / kNs)});
      }
    }
    for (int si = 0; si < 3; ++si) {
      const bool rises = tau_min_[0][si] < tau_min_[1][si] &&
                         tau_min_[1][si] < tau_min_[2][si];
      out.push_back({"fig4.tau_min_rises_with_load.slew" +
                         fmt("%.1f", kSlews[si] / kNs) + "ns",
                     rises,
                     fmt("%.4f < %.4f < %.4f ns", tau_min_[0][si] / kNs,
                         tau_min_[1][si] / kNs, tau_min_[2][si] / kNs)});
    }
    return out;
  }

  sks::cell::Technology tech_;
  std::vector<double> taus_;
  std::vector<sks::cell::SensorBench> benches_;  // load-major, then slew, tau
  double vmin_[9 * kTaus] = {};
  double tau_min_[3][3] = {};
};

// ------------------------------------------------------------- mc_population

// Samples per population.  The common-slew populations are Table 1's and as
// large as its runs, so that the check below fails for a probability twice
// its recorded value; the independent-slew (Fig. 5) populations are only
// counted.
constexpr std::size_t kTab1Samples = 1200;
constexpr std::size_t kFig5Samples = 256;

std::size_t population_size(int recipe) {
  return recipe == 0 ? kTab1Samples : kFig5Samples;
}

// EXPERIMENTS.md, Table 1: process-variation population (common slew),
// joint estimates with their Wilson 95 % intervals (N = 1200 per load).  A
// population passes when its own Wilson interval at z = 3.29 (99.9 %)
// overlaps the recorded one.
struct McReference {
  double loose[3][2] = {{0.060, 0.090}, {0.108, 0.146}, {0.137, 0.178}};
  double false_alarm[3][2] = {{0.041, 0.067}, {0.075, 0.108}, {0.130, 0.170}};
  double z = 3.29;
  std::size_t samples[2] = {kTab1Samples, kFig5Samples};
  VminReference fig4;  // the nominal calibration is Fig. 4's tau_min
};

std::pair<double, double> wilson(const sks::util::Proportion& p, double z) {
  const double n = static_cast<double>(p.trials);
  if (n == 0) return {0.0, 1.0};
  const double x = static_cast<double>(p.successes) / n;
  const double denom = 1.0 + z * z / n;
  const double center = (x + z * z / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(x * (1.0 - x) / n + z * z / (4.0 * n * n)) / denom;
  return {center - half, center + half};
}

class McPopulation final : public Workload {
 public:
  explicit McPopulation(std::uint64_t seed) : seed_(seed) {}

  std::size_t threads() const override { return 2; }

  // Nominal tau_min per load, which estimate_probabilities needs (the
  // bisections of scheme::SensorCalibration::from_simulation, called one by
  // one so each is timed).
  void setup(SpanLog& log) override {
    std::vector<double> loads(std::begin(kLoads), std::end(kLoads));
    std::vector<double> taus;
    for (int li = 0; li < 3; ++li) {
      Scope span(log, "cell.find_tau_min", static_cast<std::uint64_t>(li), 1);
      sks::cell::SensorOptions opt;
      opt.load_y1 = opt.load_y2 = kLoads[li];
      sks::cell::ClockPairStimulus stim;
      stim.vdd = tech_.vdd;
      taus.push_back(
          sks::cell::find_tau_min(tech_, opt, stim, 0.0, 1e-9, 2e-13, 5e-12));
    }
    calibration_ = sks::scheme::SensorCalibration(loads, taus);
  }

  RoundResult round(SpanLog& log) override {
    RoundResult r;
    const double vth = tech_.interpretation_threshold();
    std::uint64_t op = 0;
    double sample_seconds = 0.0;
    for (int recipe = 0; recipe < 2; ++recipe) {
      for (int li = 0; li < 3; ++li) {
        sks::scheme::McOptions mc;
        mc.load = kLoads[li];
        mc.samples = population_size(recipe);
        mc.common_slew = recipe == 0;
        mc.seed = sks::util::derive_seed(seed_, 3 * recipe + li);
        mc.threads = threads();
        mc.batch = sks::esim::kDefaultBatchLanes;
        sks::scheme::McRunStats stats;
        std::vector<sks::scheme::McSample> samples;
        {
          Scope span(log, "scheme.mc", op, mc.samples);
          samples = sks::scheme::run_vmin_montecarlo(tech_, {}, mc, &stats);
        }
        Population& pop = populations_[recipe][li];
        {
          Scope span(log, "scheme.estimate_probabilities", op, mc.samples);
          pop.estimates = sks::scheme::estimate_probabilities(
              samples, calibration_.tau_min(kLoads[li]), vth);
        }
        op += mc.samples;
        pop.size = samples.size();
        pop.unsimulated = stats.unsimulated;
        r.unfinished += stats.unsimulated;
        add_solve_counts(r.counts, stats.solve);
        r.counts["scheme.mc.samples"] += static_cast<double>(samples.size());
        r.counts["scheme.mc.unsimulated"] +=
            static_cast<double>(stats.unsimulated);
        sample_seconds += stats.sample_seconds.mean() *
                          static_cast<double>(stats.sample_seconds.count());
      }
    }
    r.counts["scheme.mc.sample_mean_s"] =
        sample_seconds / r.counts["scheme.mc.samples"];
    r.ops = op;
    r.checks = check(McReference{});
    return r;
  }

  std::vector<std::pair<std::string, std::vector<Check>>>
  wrong_reference_checks() const override {
    // Recorded probabilities twice and half the true ones.
    McReference double_loose;
    for (double& p : double_loose.loose[2]) p *= 2;
    McReference half_false;
    for (double& p : half_false.false_alarm[2]) p /= 2;
    McReference more_samples;
    more_samples.samples[0] = kTab1Samples + 1;
    McReference low_tau;
    for (double& t : low_tau.fig4.tau_min) t *= 0.5;
    return {{"tab1.p_loose.240fF", check(double_loose)},
            {"tab1.p_false.240fF", check(half_false)},
            {"tab1.samples.common.80fF", check(more_samples)},
            {"tab1.calibration.80fF", check(low_tau)}};
  }

 private:
  struct Population {
    std::size_t size = 0;
    std::size_t unsimulated = 0;
    sks::scheme::ProbabilityEstimates estimates;
  };

  std::vector<Check> check(const McReference& ref) const {
    std::vector<Check> out;
    for (int li = 0; li < 3; ++li) {
      const double t = calibration_.tau_min(kLoads[li]);
      out.push_back({"tab1.calibration." + load_tag(li),
                     std::fabs(t - ref.fig4.tau_min[li]) <=
                         ref.fig4.tau_min_rel_tol * ref.fig4.tau_min[li],
                     fmt("tau_min %.4f ns", t / kNs)});
    }
    for (int recipe = 0; recipe < 2; ++recipe) {
      const std::string tag = recipe == 0 ? "common." : "independent.";
      for (int li = 0; li < 3; ++li) {
        const Population& pop = populations_[recipe][li];
        out.push_back({"tab1.samples." + tag + load_tag(li),
                       pop.size == ref.samples[recipe] && pop.unsimulated == 0,
                       fmt("%.0f samples, %.0f unsimulated",
                           static_cast<double>(pop.size),
                           static_cast<double>(pop.unsimulated))});
      }
    }
    for (int li = 0; li < 3; ++li) {
      const auto& est = populations_[0][li].estimates;
      auto overlaps = [&](const sks::util::Proportion& p, const double* band,
                          const std::string& name) {
        const auto [lo, hi] = wilson(p, ref.z);
        out.push_back({name + "." + load_tag(li), lo <= band[1] && hi >= band[0],
                       fmt("%.4f [%.4f, %.4f]", p.estimate(), lo, hi) +
                           fmt(" vs [%.3f, %.3f]", band[0], band[1])});
      };
      overlaps(est.loose_joint, ref.loose[li], "tab1.p_loose");
      overlaps(est.false_alarm_joint, ref.false_alarm[li], "tab1.p_false");
    }
    return out;
  }

  std::uint64_t seed_;
  sks::cell::Technology tech_;
  sks::scheme::SensorCalibration calibration_;
  Population populations_[2][3];
};

// ------------------------------------------------------------ fault_campaign

struct KindCount {
  std::size_t total = 0, logic = 0, iddq_only = 0;
  bool operator==(const KindCount&) const = default;
};

// The Sec. 3 table as bench/sec3_testability prints it (EXPERIMENTS.md,
// Section 3): per fault kind (total, logic-detected, IDDQ-only), and the
// faults that escape even with IDDQ, for the 1-cycle paper protocol and the
// 2-cycle extension.
struct FaultReference {
  std::map<std::string, KindCount> kinds[2] = {
      {{"stuck-at-0", {8, 8, 0}},
       {"stuck-at-1", {8, 8, 0}},
       {"stuck-open", {10, 8, 0}},
       {"stuck-on", {10, 4, 2}},
       {"bridging", {28, 20, 0}}},
      {{"stuck-at-0", {8, 8, 0}},
       {"stuck-at-1", {8, 8, 0}},
       {"stuck-open", {10, 8, 0}},
       {"stuck-on", {10, 10, 0}},
       {"bridging", {28, 24, 0}}}};
  std::set<std::string> escapes[2] = {
      {"SOP(c)", "SOP(g)", "SON(b)", "SON(c)", "SON(g)", "SON(h)",
       "BR(phi1,phi2)", "BR(y1,y2)", "BR(y1,n1)", "BR(y1,n3)", "BR(y2,n1)",
       "BR(y2,n3)", "BR(n1,n3)", "BR(n2,n4)"},
      {"SOP(c)", "SOP(g)", "BR(phi1,phi2)", "BR(y1,y2)", "BR(n1,n3)",
       "BR(n2,n4)"}};
  std::set<std::string> stuck_open_escapes = {"SOP(c)", "SOP(g)"};
};

class FaultCampaign final : public Workload {
 public:
  // The Sec. 3 universe and test plans are fixed by the paper; the seed
  // changes nothing in this workload.
  explicit FaultCampaign(std::uint64_t) {}

  std::size_t threads() const override { return 2; }

  void setup(SpanLog& log) override {
    sks::cell::SensorOptions options;
    options.load_y1 = options.load_y2 = 160 * kFf;
    sks::cell::ClockPairStimulus stim;
    stim.full_clock = true;
    {
      Scope span(log, "cell.make_sensor_bench", 0, 1);
      bench_ = sks::cell::make_sensor_bench(tech_, options, stim);
    }
    {
      Scope span(log, "fault.universe", 0, 1);
      universe_ = sks::fault::sensor_fault_universe(bench_.cell);
    }
    plans_.clear();
    for (const int cycles : {1, 2}) {
      plans_.push_back(sks::fault::default_sensor_test_plan(
          bench_, tech_.interpretation_threshold(), cycles));
      plans_.back().dt = 5e-12;
    }
  }

  RoundResult round(SpanLog& log) override {
    RoundResult r;
    sks::fault::CampaignOptions options;
    options.threads = threads();
    options.batch = sks::esim::kDefaultBatchLanes;
    std::uint64_t op = 0;
    double fault_seconds = 0.0;
    double fault_count = 0.0;
    double fault_max = 0.0;
    for (std::size_t p = 0; p < plans_.size(); ++p) {
      {
        Scope span(log, "fault.campaign", op, universe_.size());
        reports_[p] = sks::fault::run_campaign(bench_.circuit, universe_,
                                               plans_[p], options);
      }
      op += universe_.size();
      const auto& stats = reports_[p].stats;
      r.unfinished += stats.unsimulated;
      add_solve_counts(r.counts, stats.solve);
      r.counts["fault.unsimulated"] += static_cast<double>(stats.unsimulated);
      r.counts["fault.good_sim_s"] += stats.good_sim_seconds;
      const auto n = static_cast<double>(stats.fault_seconds.count());
      fault_seconds += stats.fault_seconds.mean() * n;
      fault_count += n;
      fault_max = std::max(fault_max, stats.fault_seconds.max());
    }
    r.counts["fault.fault_mean_s"] = fault_seconds / fault_count;
    r.counts["fault.fault_max_s"] = fault_max;
    r.ops = op;
    r.checks = check(FaultReference{});
    return r;
  }

  std::vector<std::pair<std::string, std::vector<Check>>>
  wrong_reference_checks() const override {
    FaultReference full_stuck_on;
    full_stuck_on.kinds[0]["stuck-on"] = {10, 10, 0};
    FaultReference no_bridge_escape;
    no_bridge_escape.escapes[0].erase("BR(y1,y2)");
    FaultReference sop_escapes;
    sop_escapes.stuck_open_escapes = {"SOP(c)"};
    return {{"sec3.1cycle.stuck-on", check(full_stuck_on)},
            {"sec3.1cycle.escapes", check(no_bridge_escape)},
            {"sec3.1cycle.stuck_open_escapes", check(sop_escapes)}};
  }

 private:
  std::vector<Check> check(const FaultReference& ref) const {
    std::vector<Check> out;
    for (int p = 0; p < 2; ++p) {
      const std::string tag = "sec3." + std::to_string(p + 1) + "cycle.";
      std::map<std::string, KindCount> kinds;
      for (const auto& [kind, s] : reports_[p].by_kind()) {
        kinds[sks::fault::to_string(kind)] = {s.total, s.logic_detected,
                                              s.iddq_only};
      }
      for (const auto& [name, want] : ref.kinds[p]) {
        const KindCount got = kinds[name];
        out.push_back({tag + name, got == want,
                       fmt("%.0f faults, %.0f logic, ", double(got.total),
                           double(got.logic)) +
                           fmt("%.0f IDDQ-only", double(got.iddq_only))});
      }
      std::set<std::string> escapes, stuck_open;
      for (const auto& label : reports_[p].escapes(true)) {
        escapes.insert(label);
        if (label.rfind("SOP(", 0) == 0) stuck_open.insert(label);
      }
      std::string listed;
      for (const auto& e : escapes) listed += e + " ";
      out.push_back({tag + "escapes", escapes == ref.escapes[p], listed});
      out.push_back({tag + "stuck_open_escapes",
                     stuck_open == ref.stuck_open_escapes, listed});
    }
    return out;
  }

  sks::cell::Technology tech_;
  sks::cell::SensorBench bench_;
  std::vector<sks::fault::Fault> universe_;
  std::vector<sks::fault::TestPlan> plans_;
  sks::fault::CampaignReport reports_[2];
};

// --------------------------------------------------------------- tree_scheme

constexpr std::size_t kTrials = 120;       // defects per tree, as Fig. 6
constexpr std::size_t kRunCycles = 300;
constexpr std::size_t kFalseAlarmCycles = 2000;
constexpr std::uint64_t kFig6DefectSeed = 7;

using KindTally = std::map<std::string, std::pair<std::size_t, std::size_t>>;

// bench/fig6_scheme_coverage (EXPERIMENTS.md, Fig. 6): 8 sensors per tree,
// no false alarm, and at the reference seed per defect kind (injected,
// detected).  At any seed the overall coverage must stay within 5 of the
// 120 defects of the reference coverage (41.7 % and 21.7 %); over 61 other
// seeds it moved by at most one defect.
struct TreeReference {
  std::size_t sensors[2] = {8, 8};
  KindTally per_kind[2] = {
      {{"resistive-open", {45, 9}},
       {"coupling-cap", {38, 15}},
       {"weak-buffer", {24, 18}},
       {"supply-droop", {13, 8}}},
      {{"resistive-open", {45, 8}},
       {"coupling-cap", {38, 5}},
       {"weak-buffer", {24, 10}},
       {"supply-droop", {13, 3}}}};
  double coverage[2][2] = {{45.0 / 120, 55.0 / 120}, {21.0 / 120, 31.0 / 120}};
};

class TreeScheme final : public Workload {
 public:
  // The seed drives the scheme's per-cycle jitter and transient-defect
  // activation; the defect list is Fig. 6's, so the work of a round barely
  // depends on the seed.
  explicit TreeScheme(std::uint64_t seed) : seed_(seed) {}

  std::size_t threads() const override { return 1; }

  // Both Fig. 6 trees, then sensor placement on each (the placement's
  // criticality Monte-Carlo runs inside the TestingScheme constructor).
  void setup(SpanLog& log) override {
    std::vector<sks::clocktree::ClockTree> trees;
    {
      Scope span(log, "clocktree.build", 0, 1);
      sks::clocktree::HTreeOptions ho;
      ho.levels = 3;
      ho.buffer_levels = 2;
      trees.push_back(sks::clocktree::build_h_tree(ho));
    }
    {
      Scope span(log, "clocktree.build", 1, 1);
      sks::util::Prng prng(3);
      std::vector<sks::clocktree::Sink> sinks;
      for (int i = 0; i < 48; ++i) {
        sinks.push_back({{prng.uniform(0.0, 8e-3), prng.uniform(0.0, 8e-3)},
                         prng.uniform(30e-15, 90e-15)});
      }
      sks::clocktree::DmeOptions dme;
      dme.source = {4e-3, 4e-3};
      trees.push_back(sks::clocktree::build_zero_skew_tree(sinks, dme));
      sks::clocktree::BufferingOptions bo;
      bo.max_stage_cap = 500 * kFf;
      sks::clocktree::insert_buffers_by_cap(trees.back(), bo);
    }
    schemes_.clear();
    for (std::size_t t = 0; t < trees.size(); ++t) {
      Scope span(log, "scheme.placement", t, 1);
      sks::scheme::SchemeOptions so;
      so.placement.max_sensors = 8;
      so.placement.max_pair_distance = 2.5e-3;
      so.placement.sensor_load = 80 * kFf;
      so.placement.criticality.samples = 60;
      so.cycle_jitter_sigma = 1e-12;
      so.seed = seed_;
      schemes_.emplace_back(std::move(trees[t]),
                            sks::clocktree::AnalysisOptions{},
                            sks::scheme::SensorCalibration::default_table(),
                            so);
    }
  }

  RoundResult round(SpanLog& log) override {
    RoundResult r;
    std::uint64_t op = 0;
    for (std::size_t t = 0; t < schemes_.size(); ++t) {
      // A copy, so every round starts from the same jitter stream.
      sks::scheme::TestingScheme scheme = schemes_[t];
      sks::util::Prng prng(kFig6DefectSeed);
      KindTally& tally = tallies_[t];
      tally.clear();
      for (std::size_t trial = 0; trial < kTrials; ++trial) {
        const auto defect = sks::clocktree::random_defect(scheme.tree(), prng);
        Scope span(log, "scheme.run", op++, 1);
        const bool detected = scheme.run({defect}, kRunCycles).detected;
        auto& [injected, hits] = tally[sks::clocktree::to_string(defect.kind)];
        ++injected;
        hits += detected ? 1 : 0;
      }
      // false_alarm_rate is timed but is not an operation.
      Scope span(log, "scheme.false_alarm", op, 0);
      false_alarms_[t] = scheme.false_alarm_rate(kFalseAlarmCycles);
      sensors_[t] = scheme.placement().sensors.size();
    }
    r.ops = op;
    r.checks = check(TreeReference{});
    return r;
  }

  std::vector<std::pair<std::string, std::vector<Check>>>
  wrong_reference_checks() const override {
    TreeReference more_sensors;
    more_sensors.sensors[0] = 9;
    TreeReference high_band;
    high_band.coverage[0][0] = 0.80;
    high_band.coverage[0][1] = 1.00;
    TreeReference per_kind;
    per_kind.per_kind[0]["weak-buffer"].second += 1;
    std::vector<std::pair<std::string, std::vector<Check>>> out = {
        {"fig6.htree.sensors", check(more_sensors)},
        {"fig6.htree.coverage_band", check(high_band)}};
    if (seed_ == kFig6ReferenceSeed) {
      out.push_back({"fig6.htree.per_kind", check(per_kind)});
    }
    return out;
  }

 private:
  std::vector<Check> check(const TreeReference& ref) const {
    std::vector<Check> out;
    const char* names[2] = {"htree", "dme"};
    for (int t = 0; t < 2; ++t) {
      const std::string tag = std::string("fig6.") + names[t] + ".";
      out.push_back({tag + "sensors", sensors_[t] == ref.sensors[t],
                     fmt("%.0f sensors", double(sensors_[t]))});
      out.push_back({tag + "false_alarms", false_alarms_[t] == 0.0,
                     fmt("false-alarm rate %.6f", false_alarms_[t])});
      std::size_t injected = 0, detected = 0;
      std::string listed;
      for (const auto& [kind, counts] : tallies_[t]) {
        injected += counts.first;
        detected += counts.second;
        listed += kind + fmt(" %.0f/%.0f ", double(counts.second),
                             double(counts.first));
      }
      const double coverage =
          static_cast<double>(detected) / static_cast<double>(injected);
      out.push_back({tag + "coverage_band",
                     coverage >= ref.coverage[t][0] &&
                         coverage <= ref.coverage[t][1],
                     fmt("coverage %.3f in [%.2f, %.2f]", coverage,
                         ref.coverage[t][0], ref.coverage[t][1])});
      if (seed_ == kFig6ReferenceSeed) {
        out.push_back({tag + "per_kind", tallies_[t] == ref.per_kind[t], listed});
      }
    }
    return out;
  }

  std::uint64_t seed_;
  std::vector<sks::scheme::TestingScheme> schemes_;
  KindTally tallies_[2];
  double false_alarms_[2] = {};
  std::size_t sensors_[2] = {};
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "vmin_sweep", "mc_population", "fault_campaign", "tree_scheme"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "vmin_sweep") return std::make_unique<VminSweep>(seed);
  if (name == "mc_population") return std::make_unique<McPopulation>(seed);
  if (name == "fault_campaign") return std::make_unique<FaultCampaign>(seed);
  if (name == "tree_scheme") return std::make_unique<TreeScheme>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace reprobench
