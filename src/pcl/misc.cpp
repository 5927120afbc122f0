#include "liberty/pcl/misc.hpp"

#include "liberty/core/opt.hpp"

namespace liberty::pcl {

using liberty::core::AckMode;
using liberty::core::bwd;
using liberty::core::Deps;
using liberty::core::fwd;
using liberty::core::Params;

// ---------------------------------------------------------------------------
// Probe
// ---------------------------------------------------------------------------

Probe::Probe(const std::string& name, const Params& params)
    : Module(name),
      in_(add_in("in", AckMode::Managed, 1, 1)),
      out_(add_out("out", 0, 1)) {
  (void)params;
}

void Probe::react() {
  if (in_.forward_known()) {
    if (in_.has_data()) {
      out_.send(in_.data());
    } else {
      out_.idle();
    }
  }
  if (!in_.ack_driven() && out_.ack_known()) {
    if (out_.acked()) {
      in_.ack();
    } else {
      in_.nack();
    }
  }
}

void Probe::end_of_cycle() {
  if (in_.transferred()) {
    ++count_;
    stats().bind(items_stat_, "items");
    items_stat_->inc();
    if (obs_) obs_(in_.data(), now());
  }
}

void Probe::save_state(liberty::core::StateWriter& w) const {
  w.put_u64(count_);
}

void Probe::load_state(liberty::core::StateReader& r) {
  count_ = r.get_u64();
}

void Probe::declare_deps(Deps& deps) const {
  deps.depends(out_, {fwd(in_)});
  deps.depends(in_, {bwd(out_)});
}

void Probe::declare_opt(liberty::core::OptTraits& traits) const {
  // Not stateless (count_) and not pure (stats + observer), so never
  // elided, but the drive behaviour is a pure wire: fusable.
  traits.passthrough(in_, out_);
}

// ---------------------------------------------------------------------------
// FuncMap
// ---------------------------------------------------------------------------

FuncMap::FuncMap(const std::string& name, const Params& params)
    : Module(name),
      in_(add_in("in", AckMode::Managed, 1, 1)),
      out_(add_out("out", 0, 1)) {
  (void)params;
}

void FuncMap::react() {
  // Guard against re-driving: fn_ may build a fresh payload each call, and
  // a second, non-identical drive would (correctly) trip the kernel's
  // monotonicity check.
  if (in_.forward_known() && !out_.forward_known()) {
    if (in_.has_data()) {
      out_.send(fn_ ? fn_(in_.data()) : in_.data());
    } else {
      out_.idle();
    }
  }
  if (!in_.ack_driven() && out_.ack_known()) {
    if (out_.acked()) {
      in_.ack();
    } else {
      in_.nack();
    }
  }
}

void FuncMap::declare_deps(Deps& deps) const {
  deps.depends(out_, {fwd(in_)});
  deps.depends(in_, {bwd(out_)});
}

void FuncMap::declare_opt(liberty::core::OptTraits& traits) const {
  // fn_ must be pure and must be installed (set_fn) before the optimizer
  // runs; the declared transform is a copy taken here.
  traits.stateless();
  traits.pure();
  traits.passthrough(in_, out_, fn_);
}

}  // namespace liberty::pcl
