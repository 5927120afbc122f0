// FaultHook: the kernel-side seam for deterministic fault injection.
//
// Resilience testing (liberty::resil) needs to perturb the 3-signal
// handshake — corrupt an offered payload, drop or fabricate an ack, wedge a
// channel, make a handler throw — and it needs the *same* perturbation to
// happen under every scheduler and every optimization level, or the
// differential oracle would blame the injector instead of the bug under
// study.  The kernel therefore exposes exactly two interception points with
// a determinism contract, and knows nothing else about fault semantics:
//
//  * filter_forward / filter_backward run at the top of a channel's
//    resolution, before the idempotence compare, and may rewrite the signal
//    (and, forward, the value) about to be applied.  Because the mapped
//    result is what lands in the connection's state, idempotent re-drives
//    by modules or the kernel map identically and remain no-ops.
//
//  * begin_cycle runs on the main thread at the very top of run_cycle,
//    before any phase, and may throw — the one scheduler-invariant point at
//    which a "module handler failed" fault can abort a cycle while every
//    channel is still clean (module react() order differs per scheduler, so
//    throwing from inside resolution would not be).
//
// Determinism contract for implementations: the mapping applied to a channel
// must be a pure function of (connection identity, current cycle, incoming
// signal) — NEVER of the incoming value.  A channel may be driven through
// the seam more than once per cycle (an -O2 pre-resolved constant and its
// module's re-drive), and only an input-independent mapping is guaranteed
// to map every such drive identically.  liberty::resil::FaultInjector is
// the reference implementation; see docs/resilience.md.
//
// Module-safety contract: a forward mapping may corrupt or suppress an
// offer, but must never fabricate one (enable Negated -> Asserted).  Module
// handlers are entitled to trust their own side of the handshake — a
// producer that idled keys end-of-cycle bookkeeping on transferred() being
// false (e.g. pcl::Source pops its backlog only on a real transfer), and a
// forged offer makes it pop state it never staged.  Backward mappings may
// flip acks freely: both ack polarities are always-legal inputs to a
// producer, and a consumer that sees a transfer it nacked merely over-
// accepts (a modeled fault), it does not corrupt kernel state.
//
// Cost contract: with no hook installed, each resolution pays one pointer
// null-check (same budget as the KernelProbe seam; bench_scheduler keeps
// both under 2%).
#pragma once

#include "liberty/core/types.hpp"
#include "liberty/support/tristate.hpp"
#include "liberty/support/value.hpp"

namespace liberty::core {

class Connection;

class FaultHook {
 public:
  virtual ~FaultHook() = default;

  /// Top of run_cycle, main thread, channels unresolved.  May throw
  /// SimulationError to model a handler failure at a scheduler-invariant,
  /// recovery-friendly point (no partial cycle state exists yet).
  virtual void begin_cycle(Cycle) {}

  /// Map an about-to-apply forward resolution (enable + data) in place.
  virtual void filter_forward(const Connection&, Tristate& /*enable*/,
                              Value& /*data*/) {}

  /// Map an about-to-apply backward resolution (ack) in place.
  virtual void filter_backward(const Connection&, Tristate& /*ack*/) {}
};

}  // namespace liberty::core
