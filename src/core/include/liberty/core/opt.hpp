// Optimizer interface between elaboration and simulator construction.
//
// The paper's simulator *constructor* "can perform optimizations across
// module boundaries that a hand-written simulator would get for free"
// (§2.3).  This header defines the two artifacts that make such
// optimization possible without compromising the reactive semantics:
//
//  * OptTraits — what a module *declares* about itself (Module::declare_opt):
//    statelessness, purity, pass-through structure, and provably constant
//    drives.  Declarations are promises about behaviour; the optimizer only
//    ever acts on declared facts, never on inference from module code.
//
//  * OptPlan — what the optimizer *concluded* (liberty::opt::optimize):
//    per-channel constants, elidable modules and fused pass-through
//    chains.  The plan is pure annotation: no module or connection is
//    physically removed from the netlist, every channel still resolves
//    every cycle with exactly the value it would have at -O0, and
//    schedulers consult the plan to skip the work of re-deriving those
//    values.  This is what keeps every scheduler bit-identical to the
//    unoptimized netlist on transfer traces, state digests, and stats
//    (verified by the differential oracle).
//
// The plan is built by the liberty_opt library (src/opt) and attached to
// the netlist with Netlist::set_opt_plan; a null plan means "run exactly
// as written" and costs one branch per cycle.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "liberty/core/types.hpp"
#include "liberty/support/value.hpp"

namespace liberty::core {

class Connection;
class Module;
class Port;

/// Facts one module declares about its own behaviour (Module::declare_opt).
/// All declarations are optional; an empty OptTraits means "opaque", which
/// is always sound.
class OptTraits {
 public:
  /// Pass-through structure: when `in` offers a value v, this module offers
  /// transform(v) on `out` (identity when `transform` is empty) in the same
  /// cycle, and it acks `in` exactly when `out` is acked.  `transform` must
  /// be a pure combinational function.  Declaring this enables chain fusion.
  struct PassThrough {
    const Port* in = nullptr;
    const Port* out = nullptr;
    std::function<Value(const Value&)> transform;  // empty == identity
  };

  /// A forward channel this module provably drives to the same (enable,
  /// data) pair every cycle, regardless of inputs or time.
  struct ConstForward {
    const Port* port = nullptr;
    bool enabled = false;
    Value value;
  };

  /// No sequential state: behaviour is a pure function of this cycle's
  /// port signals (save_state is empty, end_of_cycle commits nothing).
  void stateless() noexcept { stateless_ = true; }
  /// No observable side effects: no stats, no observer hooks, no
  /// request_stop.  Together with stateless(), makes the module elidable
  /// when all its driven channels are constant.
  void pure() noexcept { pure_ = true; }

  void passthrough(const Port& in, const Port& out,
                   std::function<Value(const Value&)> transform = {}) {
    passthroughs_.push_back({&in, &out, std::move(transform)});
  }
  void const_forward(const Port& out, bool enabled, Value v = Value()) {
    const_forwards_.push_back({&out, enabled, std::move(v)});
  }

  [[nodiscard]] bool is_stateless() const noexcept { return stateless_; }
  [[nodiscard]] bool is_pure() const noexcept { return pure_; }
  [[nodiscard]] const std::vector<PassThrough>& passthroughs() const noexcept {
    return passthroughs_;
  }
  [[nodiscard]] const std::vector<ConstForward>& const_forwards()
      const noexcept {
    return const_forwards_;
  }

 private:
  bool stateless_ = false;
  bool pure_ = false;
  std::vector<PassThrough> passthroughs_;
  std::vector<ConstForward> const_forwards_;
};

/// The optimizer's conclusions, consumed by the schedulers.  Built once
/// (liberty::opt::optimize), immutable afterwards; shared by every
/// scheduler constructed over the netlist.
struct OptPlan {
  /// A channel whose resolved value is the same every cycle.  The kernel
  /// pre-resolves these at the top of run_cycle (module re-drives are
  /// idempotent no-ops, so modules that also drive them need no changes).
  struct ConstChannel {
    Connection* conn = nullptr;
    ChannelKind kind = ChannelKind::Forward;
    bool asserted = false;  // enable (forward) or ack (backward)
    Value value;            // forward payload when asserted
  };

  /// A fused linear chain of pass-through modules.  links[0] is the chain
  /// input connection, links[i+1] the output connection of members[i];
  /// interior links are both one member's output and the next member's
  /// input.  transforms[i] is members[i]'s declared transform (empty ==
  /// identity).  One forward sweep resolves links[1..n] as soon as
  /// links[0]'s offer is known; one backward sweep resolves the acks of
  /// links[0..n-1] as soon as links[n]'s ack is known.
  struct Chain {
    std::vector<Module*> members;
    std::vector<Connection*> links;
    std::vector<std::function<Value(const Value&)>> transforms;
  };

  /// Constant channels, all forwards before all backwards (application
  /// order: an ack constant may depend on its enable constant being
  /// applied first on gate-free AutoAccept connections).
  std::vector<ConstChannel> consts;
  /// By ChannelId: nonzero when that channel appears in `consts`.
  std::vector<char> channel_const;

  /// By ModuleId: nonzero when the module is dead logic — stateless, pure,
  /// and every channel it drives is constant.  Elided modules keep their
  /// ids and ports but the schedulers skip their cycle_start/react/
  /// end_of_cycle entirely.
  std::vector<char> elided;

  std::vector<Chain> chains;
  /// By ModuleId: index into `chains` or -1.
  std::vector<std::int32_t> chain_of_module;
  /// By ChannelId: index of the chain whose sweeps resolve this channel,
  /// or -1.
  std::vector<std::int32_t> chain_of_channel;

  [[nodiscard]] bool module_elided(ModuleId id) const noexcept {
    return id < elided.size() && elided[id] != 0;
  }
};

}  // namespace liberty::core
