// Numerical-health diagnostics: the data model the solver fills when a
// caller wants to know *why* a solve behaved the way it did, not just
// whether it converged.
//
// The engine owns one DiagRing per Simulator and pushes one DiagRecord per
// Newton iteration while diagnostics are enabled (SKS_POSTMORTEM or
// Simulator::set_diagnostics).  The ring is bounded and preallocated, so a
// multi-thousand-iteration transient keeps only the most recent history —
// exactly the part a postmortem needs — at zero steady-state allocation.
// When diagnostics are off the engine never touches this layer: the hot
// loop's only cost is one pointer null-check.
//
// This header is esim-agnostic on purpose (obs must not depend on the
// simulator): records speak in unknown indices and plain numbers; the
// bundle writer in esim/postmortem.hpp resolves names against the Circuit.
//
// Concurrency: DiagRing is NOT thread-safe — it is per-Simulator state,
// and Simulators are share-nothing across campaign workers.  The registry
// mirroring helper fills its histogram through Registry::histogram_add,
// which serializes the fill against other workers and live snapshots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sks::obs {

// LU outcome codes stored in DiagRecord::lu_status.  Kept as plain ints in
// the record so iterations.json round-trips without enum plumbing.
enum DiagLuStatus : int {
  kDiagLuOk = 0,
  kDiagLuSingular = 1,
  kDiagLuNonFinite = 2,
  kDiagLuRepivoted = 3,  // sparse refactor hit a degenerate pivot, re-pivoted
};

const char* to_string(DiagLuStatus status);

// One Newton iteration as the solver saw it.
struct DiagRecord {
  double t = 0.0;          // simulation time [s]
  double h = 0.0;          // timestep [s]; <= 0 means a DC solve
  int iteration = 0;       // NR iteration index within its solve
  double residual = 0.0;   // max |F_i| over the MNA rows
  double max_dx = 0.0;     // largest |dx| before damping [V]
  double damping = 1.0;    // applied NR damping factor (1 = full step)
  int worst_unknown = -1;  // unknown index with the largest |F_i|
  int lu_status = kDiagLuOk;
  double pivot_growth = 0.0;  // max |U_kk| / max |A_ij| (pre-factor)
  double cond_est = 0.0;      // max |U_kk| / min |U_kk| from the LU diagonal
};

// Bounded overwrite-oldest ring of DiagRecords.  All storage is allocated
// up front; push() never allocates.
class DiagRing {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  explicit DiagRing(std::size_t capacity = kDefaultCapacity);

  void push(const DiagRecord& record);
  void clear();

  std::size_t capacity() const { return ring_.size(); }
  std::size_t size() const { return size_; }
  // Total records ever pushed (>= size() once the ring wrapped).
  std::uint64_t total_pushed() const { return total_; }
  bool empty() const { return size_ == 0; }

  // Records oldest-first; the last element is the most recent iteration.
  std::vector<DiagRecord> snapshot() const;

 private:
  std::vector<DiagRecord> ring_;
  std::size_t head_ = 0;  // next write position
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
};

// What killed the solve.  The classifier is shared between the engine
// (stamping the class into the bundle manifest) and `sks-report explain`
// (re-deriving it from a bundle, and checking a repro run reproduces it).
enum class FailureClass {
  kSingularSystem,    // structurally singular / floating node
  kNonFiniteEval,     // NaN/Inf out of a device eval or the back-solve
  kOscillatingNewton, // NR bounced without contracting
  kTimestepCollapse,  // transient dt halved down to the floor
  kNoConvergence,     // generic: ran out of iterations
};

const char* to_string(FailureClass c);
// Inverse of to_string; throws util-style std::runtime_error on unknown.
FailureClass parse_failure_class(const std::string& name);
// One-paragraph human diagnosis, optionally naming the worst node.
std::string describe(FailureClass c, const std::string& worst_node);

// Everything the classifier looks at, as plain data so both the engine
// (from SolveStats + its ring) and sks-report (from a parsed bundle) can
// fill it.
struct FailureEvidence {
  std::string phase;               // "dc", "transient_dc", "transient"
  std::uint64_t lu_singular = 0;
  std::uint64_t lu_nonfinite = 0;
  std::uint64_t dt_halvings = 0;
  bool dt_at_floor = false;        // transient gave up at dt_min
  std::vector<DiagRecord> tail;    // most recent iteration records
};

FailureClass classify_failure(const FailureEvidence& evidence);

// Mirror one finished solve's health into the process registry: gauges
// `lu.pivot_growth` / `lu.cond_est` and histogram `nr.residual`
// (log10 of the final residual, bins over [-15, 5]).  Called once per
// Newton solve when diagnostics are on — never from the per-iteration hot
// path.  The histogram fill is serialized on an internal mutex because
// util::Histogram is not thread-safe and campaign workers solve
// concurrently.
void record_solve_health(double final_residual, double pivot_growth,
                         double cond_est);

}  // namespace sks::obs
