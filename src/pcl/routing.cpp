#include "liberty/pcl/routing.hpp"

#include "liberty/core/opt.hpp"
#include "liberty/pcl/payloads.hpp"
#include "liberty/support/error.hpp"

namespace liberty::pcl {

using liberty::core::AckMode;
using liberty::core::bwd;
using liberty::core::Cycle;
using liberty::core::Deps;
using liberty::core::fwd;
using liberty::core::Params;

// ---------------------------------------------------------------------------
// Tee
// ---------------------------------------------------------------------------

Tee::Tee(const std::string& name, const Params& params)
    : Module(name),
      in_(add_in("in", AckMode::Managed, 1, 1)),
      out_(add_out("out", 1)) {
  (void)params;
}

void Tee::init() { delivered_.assign(out_.width(), false); }

void Tee::react() {
  if (in_.forward_known()) {
    if (in_.has_data()) {
      for (std::size_t i = 0; i < out_.width(); ++i) {
        if (delivered_[i]) {
          out_.idle(i);  // this branch already took the current item
        } else {
          out_.send_at(i, in_.data());
        }
      }
    } else {
      for (std::size_t i = 0; i < out_.width(); ++i) out_.idle(i);
    }
  }
  if (!in_.ack_driven()) {
    bool all_known = true;
    bool all_taken = true;
    for (std::size_t i = 0; i < out_.width(); ++i) {
      if (delivered_[i]) continue;
      if (!out_.ack_known(i)) {
        all_known = false;
        break;
      }
      all_taken = all_taken && out_.acked(i);
    }
    if (all_known) {
      if (all_taken) {
        in_.ack();  // the last outstanding branch accepts this cycle
      } else {
        in_.nack();
      }
    }
  }
}

void Tee::end_of_cycle() {
  if (in_.transferred()) {
    // Broadcast complete: every branch has the item.
    stats().bind(broadcasts_stat_, "broadcasts");
    broadcasts_stat_->inc();
    delivered_.assign(out_.width(), false);
    return;
  }
  for (std::size_t i = 0; i < out_.width(); ++i) {
    if (out_.transferred(i)) delivered_[i] = true;
  }
}

void Tee::save_state(liberty::core::StateWriter& w) const {
  w.put_size(delivered_.size());
  for (const bool d : delivered_) w.put_bool(d);
}

void Tee::load_state(liberty::core::StateReader& r) {
  delivered_.assign(r.get_size(), false);
  for (std::size_t i = 0; i < delivered_.size(); ++i) {
    delivered_[i] = r.get_bool();
  }
}

void Tee::declare_deps(Deps& deps) const {
  deps.depends(out_, {fwd(in_)});
  deps.depends(in_, {bwd(out_)});
}

// ---------------------------------------------------------------------------
// Mux
// ---------------------------------------------------------------------------

Mux::Mux(const std::string& name, const Params& params)
    : Module(name),
      in_(add_in("in", AckMode::Managed, 1)),
      sel_(add_in("sel", AckMode::AutoAccept, 1, 1)),
      out_(add_out("out", 0, 1)) {
  (void)params;
}

void Mux::react() {
  if (!sel_.forward_known()) return;
  const bool have_sel = sel_.has_data();
  std::size_t sel = 0;
  if (have_sel) {
    const std::int64_t raw = sel_.data().as_int();
    if (raw < 0 || static_cast<std::size_t>(raw) >= in_.width()) {
      throw liberty::SimulationError("pcl.mux '" + name() +
                                     "': selection out of range: " +
                                     std::to_string(raw));
    }
    sel = static_cast<std::size_t>(raw);
  }

  // Forward the selected offer once it is known.
  if (have_sel) {
    if (in_.forward_known(sel) && !out_.sent() ) {
      if (in_.has_data(sel)) {
        out_.send(in_.data(sel));
      } else {
        out_.idle();
      }
    }
  } else {
    out_.idle();
  }

  // Acks: unselected inputs are refused; the selected one mirrors the
  // output's ack.
  for (std::size_t i = 0; i < in_.width(); ++i) {
    if (have_sel && i == sel) continue;
    in_.nack(i);
  }
  if (have_sel && !in_.ack_driven(sel) && out_.ack_known()) {
    if (out_.acked()) {
      in_.ack(sel);
    } else {
      in_.nack(sel);
    }
  }
}

void Mux::declare_deps(Deps& deps) const {
  deps.depends(out_, {fwd(in_), fwd(sel_)});
  deps.depends(in_, {fwd(in_), fwd(sel_), bwd(out_)});
}

// ---------------------------------------------------------------------------
// Demux
// ---------------------------------------------------------------------------

Demux::Demux(const std::string& name, const Params& params)
    : Module(name),
      in_(add_in("in", AckMode::Managed, 1, 1)),
      out_(add_out("out", 1)) {
  (void)params;
}

std::size_t Demux::route(const liberty::Value& v) const {
  std::size_t key = 0;
  if (selector_) {
    key = selector_(v);
  } else if (auto routable = v.try_as<Payload>();
             routable != nullptr) {
    const auto* r = dynamic_cast<const Routable*>(routable.get());
    if (r == nullptr) {
      throw liberty::SimulationError("pcl.demux '" + name() +
                                     "': payload is not Routable");
    }
    key = r->route_key();
  } else {
    key = static_cast<std::size_t>(v.as_int());
  }
  if (key >= out_.width()) {
    throw liberty::SimulationError("pcl.demux '" + name() +
                                   "': route key " + std::to_string(key) +
                                   " exceeds output width " +
                                   std::to_string(out_.width()));
  }
  return key;
}

void Demux::react() {
  if (!in_.forward_known()) return;
  if (!in_.has_data()) {
    for (std::size_t i = 0; i < out_.width(); ++i) out_.idle(i);
    if (!in_.ack_driven()) in_.nack();
    return;
  }
  const std::size_t target = route(in_.data());
  for (std::size_t i = 0; i < out_.width(); ++i) {
    if (i == target) {
      out_.send_at(i, in_.data());
    } else {
      out_.idle(i);
    }
  }
  if (!in_.ack_driven() && out_.ack_known(target)) {
    if (out_.acked(target)) {
      in_.ack();
    } else {
      in_.nack();
    }
  }
}

void Demux::declare_deps(Deps& deps) const {
  deps.depends(out_, {fwd(in_)});
  deps.depends(in_, {fwd(in_), bwd(out_)});
}

// ---------------------------------------------------------------------------
// Crossbar
// ---------------------------------------------------------------------------

Crossbar::Crossbar(const std::string& name, const Params& params)
    : Module(name),
      in_(add_in("in", AckMode::Managed, 1)),
      out_(add_out("out", 1)) {
  (void)params;
}

void Crossbar::init() { rr_.assign(out_.width(), 0); }

std::size_t Crossbar::route(const liberty::Value& v) const {
  std::size_t key = 0;
  if (selector_) {
    key = selector_(v);
  } else if (auto payload = v.try_as<Payload>(); payload != nullptr) {
    const auto* r = dynamic_cast<const Routable*>(payload.get());
    if (r == nullptr) {
      throw liberty::SimulationError("pcl.crossbar '" + name() +
                                     "': payload is not Routable");
    }
    key = r->route_key();
  } else {
    key = static_cast<std::size_t>(v.as_int());
  }
  return key % out_.width();
}

void Crossbar::cycle_start(Cycle) {
  decided_ = false;
  grant_.assign(out_.width(), -1);
}

void Crossbar::react() {
  if (!decided_) {
    // Wait for every input offer, then match inputs to outputs.
    for (std::size_t i = 0; i < in_.width(); ++i) {
      if (!in_.forward_known(i)) return;
    }
    decided_ = true;
    std::vector<std::vector<std::size_t>> wanting(out_.width());
    for (std::size_t i = 0; i < in_.width(); ++i) {
      if (in_.has_data(i)) wanting[route(in_.data(i))].push_back(i);
    }
    for (std::size_t o = 0; o < out_.width(); ++o) {
      const auto& req = wanting[o];
      if (req.empty()) {
        out_.idle(o);
        continue;
      }
      if (req.size() > 1) {
        stats().bind(conflicts_stat_, "conflicts");
        conflicts_stat_->inc();
      }
      // Round-robin among the requesters of this output.
      std::size_t win = req.front();
      for (const std::size_t i : req) {
        if (i >= rr_[o]) {
          win = i;
          break;
        }
      }
      grant_[o] = static_cast<int>(win);
      out_.send_at(o, in_.data(win));
    }
    // Inputs that lost (or had nothing) are refused now.
    for (std::size_t i = 0; i < in_.width(); ++i) {
      bool granted = false;
      for (std::size_t o = 0; o < out_.width(); ++o) {
        if (grant_[o] == static_cast<int>(i)) granted = true;
      }
      if (!granted) in_.nack(i);
    }
  }
  // Winner acks mirror their output's ack.
  for (std::size_t o = 0; o < out_.width(); ++o) {
    if (grant_[o] < 0) continue;
    const auto i = static_cast<std::size_t>(grant_[o]);
    if (!in_.ack_driven(i) && out_.ack_known(o)) {
      if (out_.acked(o)) {
        in_.ack(i);
      } else {
        in_.nack(i);
      }
    }
  }
}

void Crossbar::end_of_cycle() {
  for (std::size_t o = 0; o < out_.width(); ++o) {
    if (grant_[o] >= 0 && out_.transferred(o)) {
      stats().bind(xfers_stat_, "xfers");
      xfers_stat_->inc();
      rr_[o] = (static_cast<std::size_t>(grant_[o]) + 1) % in_.width();
    }
  }
}

void Crossbar::save_state(liberty::core::StateWriter& w) const {
  w.put_size(rr_.size());
  for (const std::size_t p : rr_) w.put_size(p);
}

void Crossbar::load_state(liberty::core::StateReader& r) {
  rr_.assign(r.get_size(), 0);
  for (auto& p : rr_) p = r.get_size();
}

void Crossbar::declare_deps(Deps& deps) const {
  deps.depends(out_, {fwd(in_)});
  deps.depends(in_, {fwd(in_), bwd(out_)});
}

}  // namespace liberty::pcl
