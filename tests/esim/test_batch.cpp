// Golden equivalence of the batched SoA solver against the scalar
// Simulator: K structure-identical lanes with varied parameters, faults
// and stimuli must reproduce the scalar trajectories to the same 1e-9
// band test_sparse_equiv pins for dense-vs-sparse, a lane forced to
// diverge must come back bit-identical through the scalar fallback, and
// the lane-width resolution and structure checks must behave as
// documented in esim/batch.hpp.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "cell/stimuli.hpp"
#include "cell/technology.hpp"
#include "esim/batch.hpp"
#include "esim/engine.hpp"
#include "esim/mosfet_model.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"

namespace sks::esim {
namespace {

// Same rationale as test_sparse_equiv: pin each step's solution well
// below the comparison band so trajectories cannot drift through the
// capacitor-state recursion.
void tighten(TransientOptions& options) {
  options.newton.vtol = 1e-9;
  options.newton.itol = 1e-12;
}

cell::SensorBench fig2_bench(double skew) {
  const cell::Technology tech;
  cell::SensorOptions options;
  options.load_y1 = options.load_y2 = 160e-15;
  cell::ClockPairStimulus stim;
  stim.skew = skew;
  return cell::make_sensor_bench(tech, options, stim);
}

cell::SensorBench fig3_bench(double skew) {
  const cell::Technology tech;
  cell::SensorOptions options;
  options.variant = cell::SensorVariant::kFullSwing;
  options.load_y1 = options.load_y2 = 120e-15;
  cell::ClockPairStimulus stim;
  stim.skew = skew;
  return cell::make_sensor_bench(tech, options, stim);
}

TransientResult run_scalar(const Circuit& circuit,
                           const TransientOptions& options) {
  Simulator sim(circuit);  // default mode: the golden path
  return sim.run_transient(options);
}

// Batch lane vs the scalar Simulator on the same circuit/options.
void expect_lane_equivalent(const TransientResult& lane,
                            const TransientResult& scalar,
                            const std::string& label, double tol = 1e-9) {
  ASSERT_EQ(lane.time.size(), scalar.time.size()) << label;
  ASSERT_EQ(lane.node_v.size(), scalar.node_v.size()) << label;
  for (std::size_t s = 0; s < lane.time.size(); ++s) {
    ASSERT_EQ(lane.time[s], scalar.time[s]) << label << " step " << s;
  }
  double worst = 0.0;
  for (std::size_t n = 0; n < lane.node_v.size(); ++n) {
    for (std::size_t s = 0; s < lane.time.size(); ++s) {
      worst = std::max(worst,
                       std::fabs(lane.node_v[n][s] - scalar.node_v[n][s]));
    }
  }
  EXPECT_LE(worst, tol) << label;
  for (std::size_t v = 0; v < lane.vsrc_i.size(); ++v) {
    for (std::size_t s = 0; s < lane.time.size(); ++s) {
      EXPECT_NEAR(lane.vsrc_i[v][s], scalar.vsrc_i[v][s], 1e-6)
          << label << " vsrc " << v << " step " << s;
    }
  }
}

void expect_bit_identical(const TransientResult& a, const TransientResult& b,
                          const std::string& label) {
  ASSERT_EQ(a.time.size(), b.time.size()) << label;
  for (std::size_t s = 0; s < a.time.size(); ++s) {
    ASSERT_EQ(a.time[s], b.time[s]) << label << " step " << s;
  }
  ASSERT_EQ(a.node_v.size(), b.node_v.size()) << label;
  for (std::size_t n = 0; n < a.node_v.size(); ++n) {
    for (std::size_t s = 0; s < a.time.size(); ++s) {
      ASSERT_EQ(a.node_v[n][s], b.node_v[n][s])
          << label << " node " << n << " step " << s;
    }
  }
  ASSERT_EQ(a.vsrc_i.size(), b.vsrc_i.size()) << label;
  for (std::size_t v = 0; v < a.vsrc_i.size(); ++v) {
    for (std::size_t s = 0; s < a.time.size(); ++s) {
      ASSERT_EQ(a.vsrc_i[v][s], b.vsrc_i[v][s])
          << label << " vsrc " << v << " step " << s;
    }
  }
}

TEST(BatchEquivalence, VariedFig2LanesMatchScalar) {
  // Four Monte-Carlo-style lanes: same topology, different skews and
  // different random process variations — exactly the shape the MC sweep
  // feeds the batch.
  const double skews[] = {0.08e-9, 0.12e-9, 0.2e-9, 0.28e-9};
  std::vector<Circuit> circuits;
  std::vector<TransientOptions> options;
  std::vector<TransientResult> scalar;
  const cell::VariationSpec spec;
  for (std::size_t i = 0; i < 4; ++i) {
    auto bench = fig2_bench(skews[i]);
    util::Prng prng(util::derive_seed(42, i));
    cell::apply_random_variation(bench.circuit, spec, prng);
    auto opt = cell::sensor_sim_options(bench.stimulus, 5e-12);
    tighten(opt);
    scalar.push_back(run_scalar(bench.circuit, opt));
    circuits.push_back(std::move(bench.circuit));
    options.push_back(opt);
  }

  BatchSimulator batch(circuits);
  EXPECT_EQ(batch.lanes(), 4u);
  const auto outcomes = batch.run_transients(options);
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_EQ(batch.last_batch_stats().lanes, 4u);
  EXPECT_EQ(batch.last_batch_stats().fallbacks, 0u);
  EXPECT_GT(batch.last_batch_stats().refactor_passes, 0u);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(outcomes[i].simulated) << "lane " << i;
    EXPECT_FALSE(outcomes[i].fell_back) << "lane " << i;
    expect_lane_equivalent(outcomes[i].result, scalar[i],
                           "lane " + std::to_string(i));
    // Per-lane stats mirror the scalar accounting.
    EXPECT_GT(outcomes[i].result.stats.newton_iterations, 0u);
    EXPECT_EQ(outcomes[i].result.stats.newton_failures, 0u);
    EXPECT_GT(outcomes[i].result.stats.sparse_nnz, 0u);
  }
}

TEST(BatchEquivalence, FaultInjectedFig3LanesMatchScalar) {
  // Mixed nominal / stuck-open / stuck-on lanes: fault modes are per-lane
  // parameters, not structure, so they batch together — and the defective
  // conduction topologies must still match the scalar solver.
  const MosFault faults[] = {MosFault::kNone, MosFault::kStuckOpen,
                             MosFault::kStuckOn};
  std::vector<Circuit> circuits;
  std::vector<TransientOptions> options;
  std::vector<TransientResult> scalar;
  for (const MosFault fault : faults) {
    auto bench = fig3_bench(0.15e-9);
    ASSERT_FALSE(bench.circuit.mosfets().empty());
    bench.circuit.mosfets()[0].fault = fault;
    auto opt = cell::sensor_sim_options(bench.stimulus, 5e-12);
    tighten(opt);
    scalar.push_back(run_scalar(bench.circuit, opt));
    circuits.push_back(std::move(bench.circuit));
    options.push_back(opt);
  }
  BatchSimulator batch(circuits);
  const auto outcomes = batch.run_transients(options);
  ASSERT_EQ(outcomes.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(outcomes[i].simulated) << "lane " << i;
    expect_lane_equivalent(outcomes[i].result, scalar[i],
                           "fault lane " + std::to_string(i));
  }
}

TEST(BatchEquivalence, BroadcastOptionsAndSingleLane) {
  // One options entry broadcast over K lanes, and the K=1 degenerate
  // batch, both reproduce the scalar result.
  auto bench = fig2_bench(0.2e-9);
  auto opt = cell::sensor_sim_options(bench.stimulus, 5e-12);
  tighten(opt);
  const auto scalar = run_scalar(bench.circuit, opt);

  std::vector<Circuit> lanes(3, bench.circuit);
  BatchSimulator batch(std::move(lanes));
  const auto outcomes = batch.run_transients({opt});  // broadcast
  ASSERT_EQ(outcomes.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(outcomes[i].simulated);
    expect_lane_equivalent(outcomes[i].result, scalar,
                           "broadcast lane " + std::to_string(i));
  }

  BatchSimulator single(std::vector<Circuit>{bench.circuit});
  const auto one = single.run_transients({opt});
  ASSERT_EQ(one.size(), 1u);
  ASSERT_TRUE(one[0].simulated);
  expect_lane_equivalent(one[0].result, scalar, "single lane");
}

TEST(BatchFallback, ForcedRejectionSplicesBitIdenticalScalarResult) {
  // Force lane 1 to reject every Newton attempt from mid-transient on:
  // the in-batch BE retry fails too, the lane retires, and the scalar
  // fallback must splice back a result that is bit-identical to running
  // the scalar Simulator directly — the fallback IS the golden path.
  const double skews[] = {0.1e-9, 0.18e-9, 0.25e-9};
  std::vector<Circuit> circuits;
  std::vector<TransientOptions> options;
  std::vector<TransientResult> scalar;
  for (const double skew : skews) {
    auto bench = fig2_bench(skew);
    auto opt = cell::sensor_sim_options(bench.stimulus, 5e-12);
    tighten(opt);
    scalar.push_back(run_scalar(bench.circuit, opt));
    circuits.push_back(std::move(bench.circuit));
    options.push_back(opt);
  }

  BatchSimulator batch(circuits);
  batch.force_step_rejection_for_test(1, options[1].t_end * 0.5);
  const auto before = obs::registry().counter("batch.fallbacks").value();
  const auto outcomes = batch.run_transients(options);
  const auto after = obs::registry().counter("batch.fallbacks").value();

  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[1].fell_back);
  ASSERT_TRUE(outcomes[1].simulated);
  expect_bit_identical(outcomes[1].result, scalar[1], "fallback lane");
  EXPECT_EQ(batch.last_batch_stats().fallbacks, 1u);
  EXPECT_EQ(after, before + 1);
  // The healthy lanes stay in the batch and still match.
  EXPECT_FALSE(outcomes[0].fell_back);
  EXPECT_FALSE(outcomes[2].fell_back);
  expect_lane_equivalent(outcomes[0].result, scalar[0], "healthy lane 0");
  expect_lane_equivalent(outcomes[2].result, scalar[2], "healthy lane 2");
}

TEST(BatchFallback, AdaptiveLanesRetireToScalarImmediately) {
  auto bench = fig2_bench(0.2e-9);
  auto opt = cell::sensor_sim_options(bench.stimulus, 5e-12);
  tighten(opt);
  opt.adaptive = true;
  opt.dv_max = 0.2;
  opt.dt_max = 50e-12;
  const auto scalar = run_scalar(bench.circuit, opt);

  BatchSimulator batch(std::vector<Circuit>{bench.circuit, bench.circuit});
  const auto outcomes = batch.run_transients({opt});
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(batch.last_batch_stats().fallbacks, 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(outcomes[i].fell_back) << "lane " << i;
    ASSERT_TRUE(outcomes[i].simulated) << "lane " << i;
    expect_bit_identical(outcomes[i].result, scalar,
                         "adaptive lane " + std::to_string(i));
  }
}

Circuit singular_circuit() {
  // Two ideal sources pin the same node to different voltages (same
  // fixture as test_sparse_equiv): structurally singular for any gmin.
  Circuit c;
  const auto n = c.node("n");
  c.add_vsource("V1", n, c.ground(), Waveform::dc(1.0));
  c.add_vsource("V2", n, c.ground(), Waveform::dc(2.0));
  c.add_resistor("R1", n, c.ground(), 1000.0);
  return c;
}

TEST(BatchFallback, SingularLanesReportScalarFailureWithoutThrowing) {
  TransientOptions opt;
  opt.t_end = 1e-9;
  opt.dt = 1e-10;
  std::string scalar_message;
  try {
    run_scalar(singular_circuit(), opt);
    FAIL() << "expected ConvergenceError from the scalar reference";
  } catch (const ConvergenceError& e) {
    scalar_message = e.what();
  }

  BatchSimulator batch(
      std::vector<Circuit>{singular_circuit(), singular_circuit()});
  const auto outcomes = batch.run_transients({opt});
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(batch.last_batch_stats().fallbacks, 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(outcomes[i].fell_back) << "lane " << i;
    EXPECT_FALSE(outcomes[i].simulated) << "lane " << i;
    EXPECT_EQ(outcomes[i].failure, scalar_message) << "lane " << i;
  }
}

// The batch assembles every MOSFET through mosfet_lanes() over K lanes;
// the scalar Simulator calls it through eval_mosfet() one device at a
// time.  Mixed types, faults, parameters and drain/source orientations
// must not leak between lanes: each lane's (id, gm, gds) is bit-identical
// to its own scalar call.
TEST(BatchKernel, KLaneMosfetCallMatchesKScalarCallsBitForBit) {
  constexpr std::size_t K = 12;
  std::vector<double> sign(K), beta(K), vt(K), lambda(K), full_on(K), on(K),
      open(K), vg(K), vd(K), vs(K);
  std::vector<MosParams> params(K);
  std::vector<MosFault> faults(K);
  util::Prng prng(7);
  for (std::size_t L = 0; L < K; ++L) {
    MosParams& p = params[L];
    p.type = L % 2 == 0 ? MosType::kNmos : MosType::kPmos;
    p.w = prng.uniform(1e-6, 6e-6);
    p.vt = prng.uniform(0.6, 1.0);
    p.lambda = prng.uniform(0.0, 0.05);
    faults[L] = L % 3 == 0   ? MosFault::kNone
                : L % 3 == 1 ? MosFault::kStuckOpen
                             : MosFault::kStuckOn;
    sign[L] = p.type == MosType::kNmos ? 1.0 : -1.0;
    beta[L] = p.beta();
    vt[L] = p.vt;
    lambda[L] = p.lambda;
    full_on[L] = p.full_on_vgs;
    on[L] = faults[L] == MosFault::kStuckOn ? 1.0 : 0.0;
    open[L] = faults[L] == MosFault::kStuckOpen ? 1.0 : 0.0;
    // Both drain/source orderings occur across the lanes.
    vg[L] = prng.uniform(-5.0, 5.0);
    vd[L] = prng.uniform(-5.0, 5.0);
    vs[L] = prng.uniform(-5.0, 5.0);
  }
  const MosLanes lanes{sign.data(),    beta.data(), vt.data(), lambda.data(),
                       full_on.data(), on.data(),   open.data()};
  std::vector<double> id(K), gm(K), gds(K);
  mosfet_lanes(K, lanes, vg.data(), vd.data(), vs.data(), id.data(),
               gm.data(), gds.data());
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t L = 0; L < K; ++L) {
    const MosEval e = eval_mosfet(params[L], faults[L], vg[L], vd[L], vs[L]);
    EXPECT_EQ(bits(id[L]), bits(e.id)) << "lane " << L;
    EXPECT_EQ(bits(gm[L]), bits(e.gm)) << "lane " << L;
    EXPECT_EQ(bits(gds[L]), bits(e.gds)) << "lane " << L;
  }
}

TEST(BatchStructure, CompatibilityIsTopologyNotParameters) {
  const auto a = fig2_bench(0.1e-9);
  const auto b = fig2_bench(0.3e-9);  // different stimulus, same cell
  EXPECT_TRUE(BatchSimulator::structure_compatible(a.circuit, b.circuit));

  auto faulty = fig2_bench(0.1e-9);
  faulty.circuit.mosfets()[0].fault = MosFault::kStuckOpen;
  EXPECT_TRUE(
      BatchSimulator::structure_compatible(a.circuit, faulty.circuit));

  auto varied = fig2_bench(0.1e-9);
  util::Prng prng(99);
  cell::apply_random_variation(varied.circuit, cell::VariationSpec{}, prng);
  EXPECT_TRUE(
      BatchSimulator::structure_compatible(a.circuit, varied.circuit));

  const auto other = fig3_bench(0.1e-9);  // different cell variant
  EXPECT_FALSE(
      BatchSimulator::structure_compatible(a.circuit, other.circuit));
  EXPECT_FALSE(
      BatchSimulator::structure_compatible(a.circuit, singular_circuit()));
}

TEST(BatchDeterminism, RepeatedRunsAreBitIdentical) {
  std::vector<Circuit> circuits;
  std::vector<TransientOptions> options;
  for (const double skew : {0.1e-9, 0.2e-9}) {
    auto bench = fig2_bench(skew);
    auto opt = cell::sensor_sim_options(bench.stimulus, 5e-12);
    tighten(opt);
    circuits.push_back(std::move(bench.circuit));
    options.push_back(opt);
  }
  BatchSimulator first(circuits);
  BatchSimulator second(circuits);
  const auto a = first.run_transients(options);
  const auto b = second.run_transients(options);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].simulated);
    ASSERT_TRUE(b[i].simulated);
    expect_bit_identical(a[i].result, b[i].result,
                         "lane " + std::to_string(i));
  }
}

TEST(BatchLanes, ResolutionHonoursRequestEnvAndClamp) {
  ::unsetenv("SKS_BATCH");
  EXPECT_EQ(resolve_batch_lanes(4, kDefaultBatchLanes), 4u);  // request wins
  EXPECT_EQ(resolve_batch_lanes(0, kDefaultBatchLanes), kDefaultBatchLanes);
  EXPECT_EQ(resolve_batch_lanes(1000, 8), kMaxBatchLanes);  // clamped

  ::setenv("SKS_BATCH", "off", 1);
  EXPECT_EQ(resolve_batch_lanes(0, 8), 1u);
  ::setenv("SKS_BATCH", "0", 1);
  EXPECT_EQ(resolve_batch_lanes(0, 8), 1u);
  ::setenv("SKS_BATCH", "1", 1);
  EXPECT_EQ(resolve_batch_lanes(0, 8), 1u);
  ::setenv("SKS_BATCH", "16", 1);
  EXPECT_EQ(resolve_batch_lanes(0, 8), 16u);
  EXPECT_EQ(resolve_batch_lanes(4, 8), 4u);  // explicit still wins
  ::setenv("SKS_BATCH", "1000", 1);
  EXPECT_EQ(resolve_batch_lanes(0, 8), kMaxBatchLanes);
  ::unsetenv("SKS_BATCH");
}

}  // namespace
}  // namespace sks::esim
