#include "esim/mosfet_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <tuple>

namespace sks::esim {
namespace {

MosParams nmos() {
  MosParams p;
  p.type = MosType::kNmos;
  p.w = 2.4e-6;
  p.l = 1.2e-6;
  p.kprime = 60e-6;
  p.vt = 0.8;
  p.lambda = 0.0;  // no CLM: exact square-law checks
  return p;
}

MosParams pmos() {
  MosParams p = nmos();
  p.type = MosType::kPmos;
  p.kprime = 20e-6;
  p.vt = 0.9;
  return p;
}

TEST(Mosfet, CutoffConductsOnlyLeakage) {
  const double id = mosfet_current(nmos(), MosFault::kNone, 0.5, 5.0, 0.0);
  EXPECT_LT(std::fabs(id), 1e-10);
}

TEST(Mosfet, SaturationSquareLaw) {
  // vgs = 3 V, vds = 5 V >= vov = 2.2 V -> saturation.
  const MosParams p = nmos();
  const double id = mosfet_current(p, MosFault::kNone, 3.0, 5.0, 0.0);
  const double expected = 0.5 * p.beta() * 2.2 * 2.2;
  EXPECT_NEAR(id, expected, expected * 1e-6 + 1e-11);
}

TEST(Mosfet, TriodeRegion) {
  // vgs = 5 V, vds = 1 V < vov = 4.2 V -> triode.
  const MosParams p = nmos();
  const double id = mosfet_current(p, MosFault::kNone, 5.0, 1.0, 0.0);
  const double expected = p.beta() * (4.2 * 1.0 - 0.5);
  EXPECT_NEAR(id, expected, expected * 1e-6 + 1e-11);
}

TEST(Mosfet, ChannelLengthModulationIncreasesSatCurrent) {
  MosParams with_clm = nmos();
  with_clm.lambda = 0.02;
  const double id0 = mosfet_current(nmos(), MosFault::kNone, 3.0, 5.0, 0.0);
  const double id1 = mosfet_current(with_clm, MosFault::kNone, 3.0, 5.0, 0.0);
  EXPECT_GT(id1, id0);
  EXPECT_NEAR(id1 / id0, 1.1, 1e-6);  // 1 + 0.02 * 5
}

TEST(Mosfet, SymmetricUnderTerminalSwap) {
  // Swapping drain and source must negate the current exactly.
  const MosParams p = nmos();
  const double fwd = mosfet_current(p, MosFault::kNone, 3.0, 2.0, 0.0);
  const double rev = mosfet_current(p, MosFault::kNone, 3.0, 0.0, 2.0);
  EXPECT_NEAR(fwd, -rev, std::fabs(fwd) * 1e-12);
}

TEST(Mosfet, PmosMirrorsNmos) {
  // A PMOS with mirrored voltages carries the mirrored current.
  MosParams n = nmos();
  MosParams pp = n;
  pp.type = MosType::kPmos;
  const double idn = mosfet_current(n, MosFault::kNone, 3.0, 4.0, 0.0);
  const double idp = mosfet_current(pp, MosFault::kNone, -3.0, -4.0, 0.0);
  EXPECT_NEAR(idp, -idn, std::fabs(idn) * 1e-12);
}

TEST(Mosfet, PmosConductsWithSourceAtVdd) {
  // Classic pull-up: source 5 V, gate 0 V, drain 2 V -> current flows
  // source->drain, i.e. *out of* the drain terminal (negative drain
  // current by our convention).
  const double id = mosfet_current(pmos(), MosFault::kNone, 0.0, 2.0, 5.0);
  EXPECT_LT(id, -1e-5);
}

TEST(Mosfet, PmosOffWhenGateHigh) {
  const double id = mosfet_current(pmos(), MosFault::kNone, 5.0, 2.0, 5.0);
  EXPECT_NEAR(id, 0.0, 1e-10);
}

TEST(Mosfet, StuckOpenNeverConducts) {
  const double id =
      mosfet_current(nmos(), MosFault::kStuckOpen, 5.0, 5.0, 0.0);
  EXPECT_LT(std::fabs(id), 1e-10);
}

TEST(Mosfet, StuckOnConductsWithGateLow) {
  const double id = mosfet_current(nmos(), MosFault::kStuckOn, 0.0, 2.0, 0.0);
  EXPECT_GT(id, 1e-5);
}

TEST(Mosfet, StuckOnIgnoresGate) {
  const double a = mosfet_current(nmos(), MosFault::kStuckOn, 0.0, 2.0, 0.0);
  const double b = mosfet_current(nmos(), MosFault::kStuckOn, 5.0, 2.0, 0.0);
  EXPECT_DOUBLE_EQ(a, b);
}

// Terminal voltages (vg, vd, vs) that put a device at the forward-frame
// operating point (vgs, vds): PMOS mirrors every voltage, and a reversed
// device swaps the roles of the drain and source terminals.
struct Terminals {
  double vg, vd, vs;
};

Terminals terminals(const MosParams& p, double vgs, double vds,
                    bool reversed) {
  const double base = 0.3;  // keeps the source off ground
  const double sign = p.type == MosType::kNmos ? 1.0 : -1.0;
  const double hi = base + vds;
  return {sign * (base + vgs), sign * (reversed ? base : hi),
          sign * (reversed ? hi : base)};
}

// Grid: NMOS/PMOS x {none, stuck-open, stuck-on} x forward/reversed, at
// operating points on both sides of V_t and of Vds = Vov.  Away from the
// region boundaries the current is a cubic in the terminal voltages, so
// central differences of mosfet_current() are exact up to their rounding
// error, which bounds the allowed disagreement.
TEST(Mosfet, EvalDerivativesMatchFiniteDifferences) {
  MosParams n = nmos();
  n.lambda = 0.02;  // exercise the channel-length-modulation terms
  MosParams pp = pmos();
  pp.lambda = 0.05;
  const double h = 1e-6;
  const double margin = 1e-3;  // > h: no FD stencil crosses a boundary
  int checked = 0;
  for (const MosParams& p : {n, pp}) {
    for (const MosFault fault :
         {MosFault::kNone, MosFault::kStuckOpen, MosFault::kStuckOn}) {
      for (const bool reversed : {false, true}) {
        for (const double dvt : {-0.5, -0.01, 0.01, 0.3, 1.5, 4.0}) {
          const double vgs = p.vt + dvt;
          const double vov =
              fault == MosFault::kStuckOn ? p.full_on_vgs - p.vt : dvt;
          for (const double vds :
               {0.01, 0.5, 2.0, 4.5, vov - 0.01, vov + 0.01}) {
            if (vds < margin || std::fabs(vds - vov) < margin) continue;
            const auto [vg, vd, vs] = terminals(p, vgs, vds, reversed);
            const MosEval e = eval_mosfet(p, fault, vg, vd, vs);
            const double ig_hi = mosfet_current(p, fault, vg + h, vd, vs);
            const double ig_lo = mosfet_current(p, fault, vg - h, vd, vs);
            const double id_hi = mosfet_current(p, fault, vg, vd + h, vs);
            const double id_lo = mosfet_current(p, fault, vg, vd - h, vs);
            const double gm_fd = (ig_hi - ig_lo) / (2.0 * h);
            const double gds_fd = (id_hi - id_lo) / (2.0 * h);
            // Rounding of the two stencil currents, over 2h.
            const double eps = std::numeric_limits<double>::epsilon();
            const double round_gm =
                4.0 * eps * (std::fabs(ig_hi) + std::fabs(ig_lo)) / h;
            const double round_gds =
                4.0 * eps * (std::fabs(id_hi) + std::fabs(id_lo)) / h;
            const std::string where =
                std::string(p.type == MosType::kNmos ? "nmos" : "pmos") +
                " fault=" + std::to_string(static_cast<int>(fault)) +
                (reversed ? " reversed" : " forward") +
                " vgs=" + std::to_string(vgs) + " vds=" + std::to_string(vds);
            EXPECT_NEAR(e.gm, gm_fd, std::fabs(gm_fd) * 1e-6 + round_gm)
                << where;
            EXPECT_NEAR(e.gds, gds_fd, std::fabs(gds_fd) * 1e-6 + round_gds)
                << where;
            EXPECT_EQ(e.id, mosfet_current(p, fault, vg, vd, vs)) << where;
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 300);
}

// gm and gds have kinks but no jumps: at the cutoff edge (Vov = 0), the
// saturation edge (Vds = Vov) and the Vds = 0 drain/source swap, the
// partials on either side agree to O(beta * step).
TEST(Mosfet, PartialsContinuousAcrossRegionBoundaries) {
  MosParams n = nmos();
  n.lambda = 0.02;
  MosParams pp = pmos();
  pp.lambda = 0.05;
  const double step = 1e-9;
  const auto expect_continuous = [&](const MosParams& p, double vgs_a,
                                     double vds_a, bool rev_a, double vgs_b,
                                     double vds_b, bool rev_b,
                                     const char* edge) {
    const auto ta = terminals(p, vgs_a, vds_a, rev_a);
    const auto tb = terminals(p, vgs_b, vds_b, rev_b);
    const MosEval a = eval_mosfet(p, MosFault::kNone, ta.vg, ta.vd, ta.vs);
    const MosEval b = eval_mosfet(p, MosFault::kNone, tb.vg, tb.vd, tb.vs);
    const double tol_gm = 1e-6 * std::fabs(a.gm) + 1e-12;
    const double tol_gds = 1e-6 * std::fabs(a.gds) + 1e-12;
    EXPECT_NEAR(a.gm, b.gm, tol_gm) << edge;
    EXPECT_NEAR(a.gds, b.gds, tol_gds) << edge;
  };
  for (const MosParams& p : {n, pp}) {
    for (const bool rev : {false, true}) {
      // Cutoff: Vgs straddles V_t in triode-side and saturation-side bias.
      for (const double vds : {0.05, 2.0}) {
        expect_continuous(p, p.vt - step, vds, rev, p.vt + step, vds, rev,
                          "cutoff");
      }
      // Saturation edge: Vds straddles Vov.
      for (const double vov : {0.2, 1.0, 3.0}) {
        expect_continuous(p, p.vt + vov, vov - step, rev, p.vt + vov,
                          vov + step, rev, "saturation");
      }
    }
    // Vds = 0: forward at +step against reversed at +step is the same
    // point approached from both sides of the swap.
    for (const double vgs : {p.vt - 0.2, p.vt + 0.5, p.vt + 3.0}) {
      expect_continuous(p, vgs, step, false, vgs, step, true, "vds=0");
    }
  }
}

TEST(Mosfet, CurrentContinuousAcrossSaturationBoundary) {
  const MosParams p = nmos();
  const double vov = 2.0;  // vgs = 2.8
  const double below =
      mosfet_current(p, MosFault::kNone, p.vt + vov, vov - 1e-9, 0.0);
  const double above =
      mosfet_current(p, MosFault::kNone, p.vt + vov, vov + 1e-9, 0.0);
  EXPECT_NEAR(below, above, std::fabs(above) * 1e-6);
}

TEST(Mosfet, CurrentContinuousAcrossCutoff) {
  const MosParams p = nmos();
  const double below = mosfet_current(p, MosFault::kNone, p.vt - 1e-9, 3.0, 0.0);
  const double above = mosfet_current(p, MosFault::kNone, p.vt + 1e-9, 3.0, 0.0);
  EXPECT_NEAR(below, above, 1e-9);
}

// Property sweep: monotonicity of Id in Vgs and Vds (NMOS, forward).
class MosfetMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(MosfetMonotonicity, IdNondecreasingInVgs) {
  const double vds = GetParam();
  const MosParams p = nmos();
  double prev = -1.0;
  for (double vgs = 0.0; vgs <= 5.0; vgs += 0.1) {
    const double id = mosfet_current(p, MosFault::kNone, vgs, vds, 0.0);
    EXPECT_GE(id, prev - 1e-15);
    prev = id;
  }
}

TEST_P(MosfetMonotonicity, IdNondecreasingInVds) {
  const double vgs = GetParam() + 0.8;  // keep above threshold for interest
  const MosParams p = nmos();
  double prev = -1.0;
  for (double vds = 0.0; vds <= 5.0; vds += 0.1) {
    const double id = mosfet_current(p, MosFault::kNone, vgs, vds, 0.0);
    EXPECT_GE(id, prev - 1e-15);
    prev = id;
  }
}

INSTANTIATE_TEST_SUITE_P(OperatingPoints, MosfetMonotonicity,
                         ::testing::Values(0.5, 1.0, 2.0, 3.5, 5.0));

}  // namespace
}  // namespace sks::esim
