// The four benchmark workloads, one per kind of evidence in the paper:
//
//   vmin_sweep      Fig. 4 grid + Sec. 2 tau_min bisections (scalar esim)
//   mc_population   Fig. 5 / Tab. 1 Monte-Carlo populations (batched esim + par)
//   fault_campaign  Sec. 3 fault campaign (faulted, partly ill-conditioned esim)
//   tree_scheme     Fig. 6 scheme on clock trees (behavioural, no esim)
//
// A workload has a set-up (real work that later passes reuse) and a round:
// one full pass of its timed phase.  Every round of one run repeats the same
// inputs, which the workload draws from the run's seed, so the work counts of
// a round repeat exactly.  Each round checks its outputs against the paper
// reproduction's recorded values (EXPERIMENTS.md).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace reprobench {

struct Check {
  std::string name;
  bool pass = false;
  std::string detail;
};

struct RoundResult {
  std::size_t ops = 0;         // operations attempted in the round
  std::size_t unfinished = 0;  // operations that did not complete
                               // (unsimulated sample or fault, thrown error)
  std::vector<Check> checks;
  // Per-layer work counts read from the stats structs the library returns
  // (esim::SolveStats, scheme::McRunStats, fault::CampaignStats), plus the
  // library-measured times those structs carry.
  std::map<std::string, double> counts;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Worker threads the workload asks the library for (1 = serial).
  virtual std::size_t threads() const = 0;
  // Real set-up work; callable repeatedly, each call replaces the last.
  virtual void setup(SpanLog& log) = 0;
  virtual RoundResult round(SpanLog& log) = 0;
  // The last round's outputs checked against deliberately wrong references:
  // one entry per targeted check name, whose check must fail.
  virtual std::vector<std::pair<std::string, std::vector<Check>>>
  wrong_reference_checks() const = 0;
};

const std::vector<std::string>& workload_names();
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

// The seed at which tree_scheme reproduces bench/fig6_scheme_coverage
// exactly (its scheme seed).
inline constexpr std::uint64_t kFig6ReferenceSeed = 42;

}  // namespace reprobench
