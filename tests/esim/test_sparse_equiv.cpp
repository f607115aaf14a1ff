// Golden equivalence of the two solver paths: the same circuits simulated
// dense and sparse must agree to tight tolerances on every recorded point,
// fail identically on singular systems, and produce byte-stable results
// run to run.  Also stresses the reusable SolveWorkspace across mode
// switches, repeated solves and share-nothing parallel Simulators.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "cell/stimuli.hpp"
#include "esim/benchnets.hpp"
#include "esim/engine.hpp"
#include "util/error.hpp"

namespace sks::esim {
namespace {

// Tight Newton tolerances so the dense and sparse trajectories cannot
// drift apart through the capacitor-state recursion: each step's solution
// is pinned well below the 1e-9 comparison band.
void tighten(TransientOptions& options) {
  options.newton.vtol = 1e-9;
  options.newton.itol = 1e-12;
}

TransientResult run_with_mode(const Circuit& circuit,
                              const TransientOptions& options,
                              SolverMode mode) {
  Simulator sim(circuit);
  sim.set_solver_mode(mode);
  return sim.run_transient(options);
}

void expect_equivalent(const Circuit& circuit, TransientOptions options,
                       double tol = 1e-9) {
  tighten(options);
  const auto dense = run_with_mode(circuit, options, SolverMode::kDense);
  const auto sparse = run_with_mode(circuit, options, SolverMode::kSparse);
  ASSERT_EQ(dense.time.size(), sparse.time.size());
  ASSERT_EQ(dense.node_v.size(), sparse.node_v.size());
  double worst = 0.0;
  for (std::size_t n = 0; n < dense.node_v.size(); ++n) {
    for (std::size_t s = 0; s < dense.time.size(); ++s) {
      worst = std::max(worst,
                       std::fabs(dense.node_v[n][s] - sparse.node_v[n][s]));
    }
  }
  EXPECT_LE(worst, tol);
  for (std::size_t v = 0; v < dense.vsrc_i.size(); ++v) {
    for (std::size_t s = 0; s < dense.time.size(); ++s) {
      EXPECT_NEAR(dense.vsrc_i[v][s], sparse.vsrc_i[v][s], 1e-6)
          << "vsrc " << v << " step " << s;
    }
  }
  // Every NR iteration runs a refactor, a first-time factor, or (on a
  // degenerate pivot) a refactor attempt followed by a rebuild.
  EXPECT_GE(sparse.stats.lu_refactorizations +
                sparse.stats.lu_pattern_rebuilds,
            sparse.stats.newton_iterations);
  EXPECT_LE(sparse.stats.lu_refactorizations,
            sparse.stats.newton_iterations);
  EXPECT_EQ(sparse.stats.lu_factorizations,
            sparse.stats.lu_pattern_rebuilds);
  EXPECT_GT(sparse.stats.sparse_nnz, 0u);
  EXPECT_EQ(dense.stats.sparse_nnz, 0u);
}

cell::SensorBench fig2_bench(double skew) {
  const cell::Technology tech;
  cell::SensorOptions options;  // paper Fig. 2: the basic sensing cell
  options.load_y1 = options.load_y2 = 160e-15;
  cell::ClockPairStimulus stim;
  stim.skew = skew;
  return cell::make_sensor_bench(tech, options, stim);
}

cell::SensorBench fig3_bench(double skew) {
  const cell::Technology tech;
  cell::SensorOptions options;  // paper Fig. 3: the full-swing variant
  options.variant = cell::SensorVariant::kFullSwing;
  options.load_y1 = options.load_y2 = 120e-15;
  cell::ClockPairStimulus stim;
  stim.skew = skew;
  return cell::make_sensor_bench(tech, options, stim);
}

TEST(SparseEquivalence, Fig2SensorTransientMatchesDense) {
  const auto bench = fig2_bench(0.2e-9);
  expect_equivalent(bench.circuit,
                    cell::sensor_sim_options(bench.stimulus, 5e-12));
}

TEST(SparseEquivalence, Fig3FullSwingSensorMatchesDense) {
  const auto bench = fig3_bench(0.15e-9);
  expect_equivalent(bench.circuit,
                    cell::sensor_sim_options(bench.stimulus, 5e-12));
}

TEST(SparseEquivalence, FaultInjectedVariantsMatchDense) {
  // The testability experiments run on fault-injected copies; the solver
  // paths must agree on defective circuits too (different conduction
  // topology, occasionally much stiffer systems).
  for (const MosFault fault : {MosFault::kStuckOpen, MosFault::kStuckOn}) {
    auto bench = fig2_bench(0.1e-9);
    ASSERT_FALSE(bench.circuit.mosfets().empty());
    bench.circuit.mosfets()[0].fault = fault;
    expect_equivalent(bench.circuit,
                      cell::sensor_sim_options(bench.stimulus, 5e-12));
  }
}

TEST(SparseEquivalence, BufferedClockTreeMatchesDense) {
  // The netlist the fast path exists for: ~100 unknowns, above the kAuto
  // threshold.
  ClockTreeOptions tree;
  tree.levels = 4;
  const auto net = make_clock_tree(tree);
  TransientOptions options;
  options.t_end = 0.5e-9;
  options.dt = 2e-12;
  expect_equivalent(net.circuit, options);
}

TEST(SparseEquivalence, AdaptiveSteppingMatchesDense) {
  const auto bench = fig2_bench(0.2e-9);
  auto options = cell::sensor_sim_options(bench.stimulus, 5e-12);
  options.adaptive = true;
  options.dv_max = 0.2;
  options.dt_max = 50e-12;
  // Adaptive control must take the same accept/reject decisions on both
  // paths (expect_equivalent asserts the step grids have equal size).
  expect_equivalent(bench.circuit, options);
}

Circuit singular_circuit() {
  // Two ideal sources pin the same node to different voltages: duplicate
  // MNA constraint rows, structurally singular for any gmin.
  Circuit c;
  const auto n = c.node("n");
  c.add_vsource("V1", n, c.ground(), Waveform::dc(1.0));
  c.add_vsource("V2", n, c.ground(), Waveform::dc(2.0));
  c.add_resistor("R1", n, c.ground(), 1000.0);
  return c;
}

TEST(SparseEquivalence, SingularCircuitFailsIdenticallyOnBothPaths) {
  for (const SolverMode mode : {SolverMode::kDense, SolverMode::kSparse}) {
    Simulator sim(singular_circuit());
    sim.set_solver_mode(mode);
    try {
      sim.dc_operating_point();
      FAIL() << "expected ConvergenceError, mode="
             << (mode == SolverMode::kDense ? "dense" : "sparse");
    } catch (const ConvergenceError& e) {
      EXPECT_EQ(e.phase(), "dc");
      EXPECT_GT(sim.last_stats().lu_singular, 0u)
          << "singular bailouts must be classified as such, not as "
             "generic Newton failures";
      EXPECT_EQ(sim.last_stats().lu_nonfinite, 0u);
    }
  }
}

TEST(SparseEquivalence, SparseRunIsDeterministic) {
  const auto bench = fig2_bench(0.12e-9);
  const auto options = cell::sensor_sim_options(bench.stimulus, 5e-12);
  const auto a = run_with_mode(bench.circuit, options, SolverMode::kSparse);
  const auto b = run_with_mode(bench.circuit, options, SolverMode::kSparse);
  ASSERT_EQ(a.time.size(), b.time.size());
  for (std::size_t n = 0; n < a.node_v.size(); ++n) {
    for (std::size_t s = 0; s < a.time.size(); ++s) {
      ASSERT_EQ(a.node_v[n][s], b.node_v[n][s]) << "node " << n;
    }
  }
}

TEST(SparseEquivalence, EnvVarSelectsPathAndExplicitModeWins) {
  ClockTreeOptions tree;
  tree.levels = 2;  // 15 unknowns: kAuto is sparse at every size
  const auto net = make_clock_tree(tree);
  {
    Simulator sim(net.circuit);
    EXPECT_TRUE(sim.sparse_path_active());
  }
  ::setenv("SKS_SOLVER", "sparse", 1);
  {
    Simulator sim(net.circuit);
    EXPECT_TRUE(sim.sparse_path_active());
    sim.set_solver_mode(SolverMode::kDense);  // explicit call beats the env
    EXPECT_FALSE(sim.sparse_path_active());
  }
  ::unsetenv("SKS_SOLVER");
  ClockTreeOptions big;
  big.levels = 5;
  const auto net_big = make_clock_tree(big);
  Simulator sim(net_big.circuit);
  EXPECT_TRUE(sim.sparse_path_active()) << "kAuto on a mid-size net";
}

// --- SolveWorkspace reuse (suite name is in the TSan ctest filter) ---

TEST(SolverWorkspace, SurvivesRepeatedSolvesAndModeSwitches) {
  const auto bench = fig2_bench(0.2e-9);
  auto options = cell::sensor_sim_options(bench.stimulus, 10e-12);
  Simulator sim(bench.circuit);
  std::vector<double> reference;
  for (int round = 0; round < 6; ++round) {
    sim.set_solver_mode(round % 2 == 0 ? SolverMode::kSparse
                                       : SolverMode::kDense);
    const auto result = sim.run_transient(options);
    const auto dc = sim.dc_solution();
    ASSERT_FALSE(result.time.empty());
    if (reference.empty()) {
      reference = dc.node_v;
    } else {
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_NEAR(dc.node_v[i], reference[i], 1e-7) << "round " << round;
      }
    }
  }
}

TEST(SolverWorkspace, ParallelSimulatorsShareNothing) {
  // One Simulator per thread on the same circuit value: the workspace and
  // stamp plan are per-instance, so concurrent solves must neither race
  // (TSan-checked) nor perturb each other's results.
  const auto bench = fig2_bench(0.15e-9);
  const auto options = cell::sensor_sim_options(bench.stimulus, 10e-12);
  const auto expected =
      run_with_mode(bench.circuit, options, SolverMode::kSparse);
  constexpr int kThreads = 4;
  std::vector<TransientResult> results(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      results[static_cast<std::size_t>(w)] =
          run_with_mode(bench.circuit, options, SolverMode::kSparse);
    });
  }
  for (auto& t : workers) t.join();
  for (const auto& result : results) {
    ASSERT_EQ(result.time.size(), expected.time.size());
    for (std::size_t n = 0; n < expected.node_v.size(); ++n) {
      for (std::size_t s = 0; s < expected.time.size(); ++s) {
        ASSERT_EQ(result.node_v[n][s], expected.node_v[n][s]);
      }
    }
  }
}

TEST(SolverWorkspace, MovedSimulatorKeepsItsPlan) {
  ClockTreeOptions tree;
  tree.levels = 4;
  const auto net = make_clock_tree(tree);
  Simulator a(net.circuit);
  a.set_solver_mode(SolverMode::kSparse);
  const auto before = a.dc_solution();
  Simulator b(std::move(a));
  const auto after = b.dc_solution();
  ASSERT_EQ(before.node_v.size(), after.node_v.size());
  for (std::size_t i = 0; i < before.node_v.size(); ++i) {
    EXPECT_EQ(before.node_v[i], after.node_v[i]);
  }
  EXPECT_GT(after.stats.sparse_nnz, 0u);
}

}  // namespace
}  // namespace sks::esim
