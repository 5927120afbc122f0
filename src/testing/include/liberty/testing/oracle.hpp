// Differential oracle: prove N schedulers bit-identical on one netlist.
//
// The reference (dynamic) scheduler defines the semantics; every candidate
// (static, compiled, native, at -O0 and -O2) must match it exactly.  The
// oracle runs in two phases:
//
//   1. Coarse: each simulator runs the full cycle budget alone, taking a
//      kernel snapshot every `snapshot_every` cycles and folding every
//      completed transfer into a per-window trace hash.  Disagreement in
//      any window hash, snapshot digest, or the final stats dump flags the
//      candidate.
//   2. Bisect: the first disagreeing window brackets the bug.  Fresh
//      simulators are built for both schedulers, restored from their
//      last-agreeing snapshots (exercising Simulator::restore for real),
//      and replayed in lockstep — one cycle at a time, comparing the
//      transfer record and every module's state digest — until the exact
//      divergent cycle and the differing modules fall out.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "liberty/core/registry.hpp"
#include "liberty/core/simulator.hpp"
#include "liberty/testing/netspec.hpp"

namespace liberty::resil {
struct FaultPlan;
}

namespace liberty::testing {

struct Candidate {
  liberty::core::SchedulerKind kind = liberty::core::SchedulerKind::Static;
  /// Optimizer level applied to the candidate's netlist (opt::optimize)
  /// before its simulator is built.  The dynamic -O0 reference defines the
  /// semantics, so a nonzero level here proves the optimizer preserves
  /// transfer traces, state digests and stats bit-for-bit.
  int opt_level = 0;

  [[nodiscard]] std::string describe() const;
};

struct OracleConfig {
  /// Candidates checked against the dynamic reference.  Empty selects the
  /// default battery: static, compiled at -O0 and -O2, and (when built in)
  /// native at -O0 and -O2.
  std::vector<Candidate> candidates;
  liberty::core::Cycle snapshot_every = 16;
  bool bisect = true;  // phase 2 on divergence
  /// Attach a CycleProfiler to every coarse-phase simulator.  The probes
  /// must be invisible to simulation; running the oracle with this set
  /// proves profiling does not perturb results.
  bool profile = false;
  /// Inject this fault plan into every simulator the oracle builds
  /// (coarse and bisect phases alike).  Plans whose specs are restricted
  /// to one scheduler kind perturb only that kind, so the oracle must
  /// catch and bisect the induced divergence — the differential
  /// acceptance test for the resil injector.  Must outlive the call.
  const liberty::resil::FaultPlan* fault_plan = nullptr;
};

/// The oracle's verdict on one (spec, candidate) divergence.
struct Divergence {
  Candidate candidate;
  liberty::core::Cycle first_divergent_cycle = 0;
  std::vector<std::string> modules;  // whose state digests differ first
  std::string detail;                // human-readable report
};

struct OracleResult {
  bool ok = true;
  std::vector<Divergence> divergences;  // one per failing candidate

  [[nodiscard]] std::string report() const;
};

/// Run `spec` under the reference and every candidate; compare.
[[nodiscard]] OracleResult run_oracle(
    const NetSpec& spec, const liberty::core::ModuleRegistry& registry,
    const OracleConfig& config = {});

}  // namespace liberty::testing
