// KernelProbe: the kernel-side half of the observability layer.
//
// The schedulers are the only code that knows when a cycle phase starts or
// how long a module's react() took — but the kernel
// must not depend on exporters or aggregation policy.  KernelProbe is the
// seam: a branch-on-null observer interface the scheduler invokes at
// well-defined serialization points.  liberty::obs implements it
// (CycleProfiler, ChromeTraceWriter); the kernel only ever sees this
// abstract interface.
//
// Cost contract: with no probe installed every instrumentation site is a
// single null/flag check (measured <2% on bench_scheduler, see
// docs/observability.md).  With a probe installed the kernel calls the
// cycle callbacks (on_cycle_begin, on_cycle_resolved, on_cycle_end) every
// cycle; only when the probe is timed() does it also read the monotonic
// clock around each phase and each react() call and report them through
// on_phase/on_react.  A probe that only inspects cycle outcomes (the
// resil TraceRecorder and Watchdog) answers timed() == false and leaves
// the hot path clock-free.
//
// Threading contract: every callback fires on the simulation thread, so
// probes may aggregate into plain fields.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "liberty/core/types.hpp"

namespace liberty::core {

/// The fixed per-cycle phase sequence of SchedulerBase::run_cycle (see
/// docs/scheduling.md "The per-cycle contract").
enum class SchedPhase : std::uint8_t {
  CycleStart = 0,  // Module::cycle_start on every module
  Resolve = 1,     // fixed-point resolution (the scheduler-specific part)
  Update = 2,      // Module::end_of_cycle on every module
  Commit = 3,      // transfer commit + observers + channel reset
};

inline constexpr std::size_t kSchedPhaseCount = 4;

[[nodiscard]] constexpr std::string_view phase_name(SchedPhase p) noexcept {
  switch (p) {
    case SchedPhase::CycleStart: return "cycle_start";
    case SchedPhase::Resolve: return "resolve";
    case SchedPhase::Update: return "update";
    case SchedPhase::Commit: return "commit";
  }
  return "?";
}

class KernelProbe {
 public:
  virtual ~KernelProbe() = default;

  /// Whether this probe consumes on_phase/on_react.  Sampled once per
  /// cycle at its start: an untimed probe gets only the cycle callbacks,
  /// and the kernel skips every clock read for that cycle.
  [[nodiscard]] virtual bool timed() const { return true; }

  virtual void on_cycle_begin(Cycle) {}
  virtual void on_cycle_end(Cycle) {}

  /// Every channel of every connection has resolved for this cycle, but no
  /// end_of_cycle handler has run and no transfer has been committed yet.
  /// This is the invariant-checking window (resil::Watchdog): a probe that
  /// throws here aborts the cycle *before* any module commits state, so a
  /// rollback to an earlier checkpoint replays a fault-free trajectory.
  virtual void on_cycle_resolved(Cycle) {}

  /// Phase completed; `seconds` is its wall-clock duration.  Called at the
  /// end of the phase, so an exporter can reconstruct the start time.
  virtual void on_phase(SchedPhase, Cycle, double /*seconds*/) {}

  /// One Module::react() call by module `id` finished; `seconds` is its
  /// wall-clock duration (per-module attribution).
  virtual void on_react(ModuleId /*id*/, double /*seconds*/) {}
};

}  // namespace liberty::core
