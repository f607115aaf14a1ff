// SPICE level-1 (Shichman-Hodges) MOSFET model.
//
// This is the classical square-law model: cutoff / triode / saturation with
// channel-length modulation.  It is evaluated symmetrically (drain and
// source swap when Vds < 0), which matters for pass structures and for
// bridging-fault simulations where a device can be driven backwards.
//
// Transistor-level fault modes live here too: a *stuck-open* device never
// conducts; a *stuck-on* device conducts as if its gate were tied to the
// full-on rail, which is the standard electrical model for gate-oxide /
// gate-contact defects used by the paper's testability analysis (Sec. 3).
//
// The equations and their analytic partials are written once, in
// mosfet_lanes(): the scalar Simulator evaluates it with one lane, the
// batched SoA solver (esim/batch.hpp) with one lane per circuit.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace sks::esim {

enum class MosType { kNmos, kPmos };

enum class MosFault {
  kNone,
  kStuckOpen,  // channel never conducts
  kStuckOn,    // channel conducts with full gate overdrive regardless of Vg
};

struct MosParams {
  MosType type = MosType::kNmos;
  double w = 3.0e-6;       // channel width [m]
  double l = 1.2e-6;       // channel length [m]
  double kprime = 60e-6;   // process transconductance k' = u*Cox [A/V^2]
  double vt = 0.8;         // threshold voltage magnitude [V] (positive number)
  double lambda = 0.02;    // channel-length modulation [1/V]
  // Overdrive used for a stuck-on device (gate effectively at the rail).
  double full_on_vgs = 5.0;

  double beta() const { return kprime * w / l; }
};

struct MosEval {
  double id = 0.0;   // drain terminal current (positive into the drain)
  double gm = 0.0;   // dId/dVg
  double gds = 0.0;  // dId/dVd
  // dId/dVs = -(gm + gds): the model depends on terminal differences only
  // (no body effect), so the three partials sum to zero.
};

// Leakage conductance of an OFF channel.  Keeps the Jacobian non-singular
// when a node is only reachable through cut-off devices (e.g. the paper's
// "high impedance state keeping its high value").
constexpr double kMosGoff = 1e-12;

// Device parameters in lane form: element L of every array belongs to
// lane L.  on/open are fault masks holding exactly 0.0 or 1.0.
struct MosLanes {
  const double* sign;     // +1 NMOS, -1 PMOS
  const double* beta;     // k' W / L [A/V^2]
  const double* vt;       // threshold magnitude [V]
  const double* lambda;   // channel-length modulation [1/V]
  const double* full_on;  // stuck-on gate overdrive [V]
  const double* on;       // 1.0 = stuck-on
  const double* open;     // 1.0 = stuck-open
};

// Drain current and its exact partials for `k` lanes at ground-referred
// terminal voltages vg/vd/vs.
//
// PMOS folds onto the NMOS equations by mirroring every voltage (and the
// current back).  A reversed device (Vds < 0) evaluates forward with drain
// and source swapped — hi/lo via max/min, direction via copysign — so the
// loop is branch-free and vectorizes over lanes.  The fault overrides are
// mask arithmetic: m*a + (1-m)*b selects exactly for m in {0, 1}.
//
// In the forward frame I = beta*q*(1 + lambda*vds) + goff*vds with
// q = vovp*vdse - vdse^2/2, vovp = max(vgs - vt, 0), vdse = min(vds, vovp);
// one formula covers cutoff (vovp = 0), triode (vdse = vds) and saturation
// (vdse = vovp).  dI/dvgs = beta*vdse*clm and
// dI/dvds = beta*(vovp - vdse)*clm + beta*q*lambda + goff.  For a reversed
// device the terminal named drain is the forward source, so it also picks
// up the gate-source term.
//
// Internal linkage on purpose: batch.cpp compiles this loop with wider
// vector flags than the rest of the library, and one shared inline copy
// would let the linker pick either build for every caller.
static inline void mosfet_lanes(std::size_t k, const MosLanes& p,
                                const double* vg, const double* vd,
                                const double* vs, double* __restrict id,
                                double* __restrict gm,
                                double* __restrict gds) {
  for (std::size_t L = 0; L < k; ++L) {
    const double sg = p.sign[L];
    const double vdn = sg * vd[L];
    const double vsn = sg * vs[L];
    const double flow = std::copysign(1.0, vdn - vsn);
    const double hi = std::max(vdn, vsn);
    const double lo = std::min(vdn, vsn);
    const double gated = 1.0 - p.on[L];
    const double vgs = p.on[L] * p.full_on[L] + gated * (sg * vg[L] - lo);
    const double vds = hi - lo;
    const double vovp = std::max(vgs - p.vt[L], 0.0);
    const double vdse = std::min(vds, vovp);
    const double clm = 1.0 + p.lambda[L] * vds;
    const double q = vovp * vdse - 0.5 * vdse * vdse;
    const double fwd = p.beta[L] * q * clm + kMosGoff * vds;
    const double d_vgs = p.beta[L] * vdse * clm * gated;
    const double d_vds = p.beta[L] * (vovp - vdse) * clm +
                         p.beta[L] * q * p.lambda[L] + kMosGoff;
    const double reversed = 0.5 - 0.5 * flow;
    const double open = p.open[L];
    const double chan = 1.0 - open;
    id[L] = open * (kMosGoff * (vd[L] - vs[L])) + chan * (sg * flow * fwd);
    gm[L] = chan * (flow * d_vgs);
    gds[L] = open * kMosGoff + chan * (d_vds + reversed * d_vgs);
  }
}

// Drain terminal current at the given ground-referred terminal voltages.
// Pure function of the arguments; handles PMOS mirroring and Vds<0 swap.
double mosfet_current(const MosParams& params, MosFault fault, double vg,
                      double vd, double vs);

// Current plus its analytic partial derivatives: mosfet_lanes() with one
// lane.
MosEval eval_mosfet(const MosParams& params, MosFault fault, double vg,
                    double vd, double vs);

}  // namespace sks::esim
