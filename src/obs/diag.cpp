#include "obs/diag.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace sks::obs {

const char* to_string(DiagLuStatus status) {
  switch (status) {
    case kDiagLuOk: return "ok";
    case kDiagLuSingular: return "singular";
    case kDiagLuNonFinite: return "nonfinite";
    case kDiagLuRepivoted: return "repivoted";
  }
  return "unknown";
}

DiagRing::DiagRing(std::size_t capacity) {
  ring_.resize(std::max<std::size_t>(capacity, 1));
}

void DiagRing::push(const DiagRecord& record) {
  ring_[head_] = record;
  head_ = (head_ + 1) % ring_.size();
  size_ = std::min(size_ + 1, ring_.size());
  ++total_;
}

void DiagRing::clear() {
  head_ = 0;
  size_ = 0;
  total_ = 0;
}

std::vector<DiagRecord> DiagRing::snapshot() const {
  std::vector<DiagRecord> out;
  out.reserve(size_);
  // Oldest record sits at head_ once the ring wrapped, at 0 before.
  const std::size_t start = size_ == ring_.size() ? head_ : 0;
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

const char* to_string(FailureClass c) {
  switch (c) {
    case FailureClass::kSingularSystem: return "singular_system";
    case FailureClass::kNonFiniteEval: return "nonfinite_eval";
    case FailureClass::kOscillatingNewton: return "oscillating_newton";
    case FailureClass::kTimestepCollapse: return "timestep_collapse";
    case FailureClass::kNoConvergence: return "no_convergence";
  }
  return "unknown";
}

FailureClass parse_failure_class(const std::string& name) {
  for (const FailureClass c :
       {FailureClass::kSingularSystem, FailureClass::kNonFiniteEval,
        FailureClass::kOscillatingNewton, FailureClass::kTimestepCollapse,
        FailureClass::kNoConvergence}) {
    if (name == to_string(c)) return c;
  }
  throw std::runtime_error("unknown failure class: " + name);
}

std::string describe(FailureClass c, const std::string& worst_node) {
  const std::string at =
      worst_node.empty() ? std::string()
                         : " The largest residual sits on node '" +
                               worst_node + "'.";
  switch (c) {
    case FailureClass::kSingularSystem:
      return "The MNA system is singular: a node is floating (no DC path "
             "to ground) or two constraints conflict, e.g. two ideal "
             "sources pinning one node to different voltages." + at;
    case FailureClass::kNonFiniteEval:
      return "A device evaluation or the LU back-solve produced NaN/Inf: "
             "the iterate left the domain where the models are finite "
             "(typically after an undamped overshoot)." + at;
    case FailureClass::kOscillatingNewton:
      return "Newton-Raphson oscillated: the residual bounced between "
             "levels instead of contracting, the signature of an iterate "
             "hopping across a device's operating regions." + at;
    case FailureClass::kTimestepCollapse:
      return "The transient stepper halved dt down to its floor and the "
             "step still failed: the waveform has a feature (or a "
             "modelling artifact) sharper than the minimum timestep." + at;
    case FailureClass::kNoConvergence:
      return "Newton-Raphson ran out of iterations without meeting "
             "tolerances, with no sharper signature (not singular, finite "
             "arithmetic, residual neither contracting nor oscillating)." +
             at;
  }
  return "unknown failure";
}

namespace {

// Oscillation heuristic over the most recent iteration records: the
// residual sequence is non-contracting AND at least half its interior
// points are local extrema (rise/fall direction keeps flipping).
bool residual_oscillates(const std::vector<DiagRecord>& tail) {
  std::vector<double> r;
  r.reserve(tail.size());
  const std::size_t from = tail.size() > 32 ? tail.size() - 32 : 0;
  for (std::size_t i = from; i < tail.size(); ++i) {
    if (std::isfinite(tail[i].residual) && tail[i].residual > 0.0) {
      r.push_back(tail[i].residual);
    }
  }
  if (r.size() < 8) return false;
  if (r.back() < 1e-3 * r.front()) return false;  // still contracting
  std::size_t flips = 0;
  for (std::size_t i = 1; i + 1 < r.size(); ++i) {
    if ((r[i + 1] - r[i]) * (r[i] - r[i - 1]) < 0.0) ++flips;
  }
  return flips * 2 >= r.size() - 2;
}

}  // namespace

FailureClass classify_failure(const FailureEvidence& evidence) {
  if (evidence.lu_nonfinite > 0) return FailureClass::kNonFiniteEval;
  for (const DiagRecord& r : evidence.tail) {
    if (!std::isfinite(r.residual) || !std::isfinite(r.max_dx)) {
      return FailureClass::kNonFiniteEval;
    }
    if (r.lu_status == kDiagLuNonFinite) return FailureClass::kNonFiniteEval;
  }
  if (evidence.lu_singular > 0) return FailureClass::kSingularSystem;
  for (const DiagRecord& r : evidence.tail) {
    if (r.lu_status == kDiagLuSingular) return FailureClass::kSingularSystem;
  }
  if (residual_oscillates(evidence.tail)) {
    return FailureClass::kOscillatingNewton;
  }
  if (evidence.phase == "transient" && evidence.dt_at_floor) {
    return FailureClass::kTimestepCollapse;
  }
  return FailureClass::kNoConvergence;
}

void record_solve_health(double final_residual, double pivot_growth,
                         double cond_est) {
  Registry& reg = registry();
  reg.gauge("lu.pivot_growth").set(pivot_growth);
  reg.gauge("lu.cond_est").set(cond_est);
  if (final_residual > 0.0 && std::isfinite(final_residual)) {
    // Campaign workers finish solves concurrently (once per solve, never
    // per iteration), and a live exporter may snapshot meanwhile.
    reg.histogram_add("nr.residual", -15.0, 5.0, 40,
                      std::log10(final_residual));
  }
}

}  // namespace sks::obs
