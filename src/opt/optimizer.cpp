#include "liberty/opt/optimizer.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "liberty/core/connection.hpp"
#include "liberty/core/module.hpp"
#include "liberty/core/opt.hpp"
#include "liberty/core/port.hpp"
#include "liberty/support/error.hpp"

namespace liberty::opt {

using core::AckMode;
using core::backward_channel;
using core::ChannelKind;
using core::Connection;
using core::forward_channel;
using core::Module;
using core::Netlist;
using core::OptPlan;
using core::OptTraits;
using core::Port;
using core::PortDir;

namespace {

/// What constant propagation has concluded about one channel so far.
struct ChannelFact {
  bool known = false;
  bool asserted = false;   // enable (forward) / ack (backward)
  liberty::Value value;    // forward payload when asserted
};

/// One declared pass-through, located in the netlist.  A null connection
/// means the corresponding port endpoint is unconnected; `valid` is false
/// when the declaration cannot be located on a unique endpoint pair (a
/// port with several connected endpoints is not a single channel).
struct PassThroughSite {
  Module* module = nullptr;
  const OptTraits::PassThrough* decl = nullptr;
  Connection* in_conn = nullptr;
  Connection* out_conn = nullptr;
  bool valid = false;
};

/// The unique connected endpoint of `p`, or null; `ok` is false when more
/// than one endpoint is connected.
Connection* unique_endpoint(const Port& p, bool& ok) {
  Connection* found = nullptr;
  ok = true;
  for (std::size_t i = 0; i < p.width(); ++i) {
    Connection* c = p.connection(i);
    if (c == nullptr) continue;
    if (found != nullptr) {
      ok = false;
      return nullptr;
    }
    found = c;
  }
  return found;
}

}  // namespace

std::string OptReport::summary() const {
  std::ostringstream os;
  os << "opt: -O" << level;
  if (level == 0) {
    os << " (no plan attached)";
    return os.str();
  }
  os << "  const=" << const_forwards << "fwd+" << const_backwards << "bwd"
     << "  elided=" << elided_modules << "  chains=" << fused_chains << "("
     << fused_modules << " modules)";
  return os.str();
}

OptReport optimize(Netlist& netlist, const OptOptions& options) {
  if (!netlist.finalized()) {
    throw liberty::ElaborationError(
        "opt::optimize: netlist must be finalized first");
  }
  OptReport report;
  report.level = options.level;
  // Make re-optimization (e.g. tests sweeping levels) start from scratch.
  netlist.set_opt_plan(nullptr);
  if (options.level <= 0) {
    return report;  // -O0: no plan at all; schedulers take the null path.
  }
  const bool fuse = options.level >= 2;

  const auto& modules = netlist.modules();
  const std::size_t n_mod = modules.size();
  const std::size_t n_conn = netlist.connection_count();
  const std::size_t n_ch = 2 * n_conn;
  std::ostringstream detail;

  // ---- Gather declarations -----------------------------------------------
  std::vector<OptTraits> traits(n_mod);
  for (std::size_t i = 0; i < n_mod; ++i) {
    modules[i]->declare_opt(traits[i]);
  }
  std::vector<PassThroughSite> sites;
  // Per-module site index when the module declares exactly one pass-through
  // (the shape chain fusion needs); -1 otherwise.
  std::vector<std::int32_t> site_of(n_mod, -1);
  for (std::size_t i = 0; i < n_mod; ++i) {
    for (const OptTraits::PassThrough& pt : traits[i].passthroughs()) {
      PassThroughSite s;
      s.module = modules[i].get();
      s.decl = &pt;
      bool in_ok = true;
      bool out_ok = true;
      s.in_conn = unique_endpoint(*pt.in, in_ok);
      s.out_conn = unique_endpoint(*pt.out, out_ok);
      s.valid = in_ok && out_ok && pt.in->dir() == PortDir::In &&
                pt.out->dir() == PortDir::Out;
      sites.push_back(std::move(s));
    }
    if (traits[i].passthroughs().size() == 1 && sites.back().valid) {
      site_of[i] = static_cast<std::int32_t>(sites.size() - 1);
    }
  }

  // ---- Pass 1: constant propagation --------------------------------------
  std::vector<ChannelFact> fact(n_ch);
  auto set_fwd = [&fact](const Connection& c, bool enabled,
                         const liberty::Value& v) {
    ChannelFact& f = fact[forward_channel(c.id())];
    if (f.known) return false;
    f.known = true;
    f.asserted = enabled;
    if (enabled) f.value = v;
    return true;
  };
  auto set_bwd = [&fact](const Connection& c, bool acked) {
    ChannelFact& f = fact[backward_channel(c.id())];
    if (f.known) return false;
    f.known = true;
    f.asserted = acked;
    return true;
  };

  // Seeds: declared constant forwards, on every connected endpoint of the
  // declaring port.
  for (std::size_t i = 0; i < n_mod; ++i) {
    for (const OptTraits::ConstForward& cf : traits[i].const_forwards()) {
      if (cf.port->dir() != PortDir::Out) continue;
      for (std::size_t e = 0; e < cf.port->width(); ++e) {
        if (Connection* c = cf.port->connection(e)) {
          set_fwd(*c, cf.enabled, cf.value);
        }
      }
    }
  }
  // Seeds: a pass-through whose output is unconnected always sees the
  // port's configured unconnected ack, so its input ack is that constant
  // (pass-through contract: in is acked exactly when out is acked).
  for (const PassThroughSite& s : sites) {
    if (!s.valid || s.in_conn == nullptr || s.out_conn != nullptr) continue;
    if (s.in_conn->ack_mode() != AckMode::Managed ||
        s.in_conn->has_transfer_gate()) {
      continue;
    }
    set_bwd(*s.in_conn, s.decl->out->unconnected_ack());
  }
  // Rules, to a fixed point.  Channels are single-assignment here, so the
  // loop terminates after at most n_ch productive iterations.
  bool changed = true;
  while (changed) {
    changed = false;
    // R1: on a gate-free AutoAccept connection the kernel resolves
    // ack := enable, so a constant offer makes the ack constant.
    for (const auto& cp : netlist.connections()) {
      const Connection& c = *cp;
      if (c.ack_mode() != AckMode::AutoAccept || c.has_transfer_gate()) {
        continue;
      }
      const ChannelFact& f = fact[forward_channel(c.id())];
      if (f.known && !fact[backward_channel(c.id())].known) {
        changed |= set_bwd(c, f.asserted);
      }
    }
    for (const PassThroughSite& s : sites) {
      if (!s.valid || s.in_conn == nullptr || s.out_conn == nullptr) {
        continue;
      }
      // R2-fwd: constant offer in, constant offer out.  Idle passes
      // through any transform; an asserted value is folded through the
      // (pure) transform once, here at elaboration time.
      const ChannelFact& fi = fact[forward_channel(s.in_conn->id())];
      ChannelFact& fo = fact[forward_channel(s.out_conn->id())];
      if (fi.known && !fo.known) {
        if (!fi.asserted) {
          changed |= set_fwd(*s.out_conn, false, liberty::Value());
        } else if (!s.decl->transform) {
          changed |= set_fwd(*s.out_conn, true, fi.value);
        } else {
          changed |= set_fwd(*s.out_conn, true, s.decl->transform(fi.value));
        }
      }
      // R2-bwd: constant ack out, constant ack in (the module mirrors the
      // downstream ack onto its managed input).
      if (s.in_conn->ack_mode() == AckMode::Managed &&
          !s.in_conn->has_transfer_gate()) {
        const ChannelFact& fa = fact[backward_channel(s.out_conn->id())];
        if (fa.known && !fact[backward_channel(s.in_conn->id())].known) {
          changed |= set_bwd(*s.in_conn, fa.asserted);
        }
      }
    }
  }

  // ---- Pass 2: dead-logic elision ----------------------------------------
  std::vector<char> elided(n_mod, 0);
  for (std::size_t i = 0; i < n_mod; ++i) {
    if (!traits[i].is_stateless() || !traits[i].is_pure()) continue;
    // Every channel the module drives must already be constant: output
    // forwards, and the acks of managed inputs.  (A stateless, pure
    // declaration promises the module never drives an AutoAccept ack.)
    bool all_const = true;
    for (const auto& port : modules[i]->ports()) {
      for (std::size_t e = 0; e < port->width() && all_const; ++e) {
        const Connection* c = port->connection(e);
        if (c == nullptr) continue;
        if (port->dir() == PortDir::Out) {
          all_const = fact[forward_channel(c->id())].known;
        } else if (c->ack_mode() == AckMode::Managed) {
          all_const = fact[backward_channel(c->id())].known;
        }
      }
      if (!all_const) break;
    }
    if (all_const) {
      elided[i] = 1;
      detail << "elide: " << modules[i]->name() << '\n';
    }
  }

  // ---- Pass 3: stateless-chain fusion ------------------------------------
  // A module is fusable when its single declared pass-through covers every
  // connected endpoint it has, both links are plain managed/gate-free point
  // -to-point connections, and it survived DCE.
  std::vector<char> fusable(n_mod, 0);
  if (fuse) {
    for (std::size_t i = 0; i < n_mod; ++i) {
      if (elided[i] != 0 || site_of[i] < 0) continue;
      const PassThroughSite& s = sites[static_cast<std::size_t>(site_of[i])];
      if (s.in_conn == nullptr || s.out_conn == nullptr) continue;
      if (s.in_conn->ack_mode() != AckMode::Managed) continue;
      if (s.in_conn->has_transfer_gate() || s.out_conn->has_transfer_gate()) {
        continue;
      }
      bool only_pt = true;
      for (const auto& port : modules[i]->ports()) {
        for (std::size_t e = 0; e < port->width(); ++e) {
          const Connection* c = port->connection(e);
          if (c != nullptr && c != s.in_conn && c != s.out_conn) {
            only_pt = false;
          }
        }
      }
      if (only_pt) fusable[i] = 1;
    }
  }
  std::vector<OptPlan::Chain> chains;
  std::vector<std::int32_t> chain_of_module(n_mod, -1);
  std::vector<std::int32_t> chain_of_channel(n_ch, -1);
  if (fuse) {
    auto site = [&](const Module* m) -> const PassThroughSite& {
      return sites[static_cast<std::size_t>(site_of[m->id()])];
    };
    auto is_free = [&](const Module* m) {
      return fusable[m->id()] != 0 && chain_of_module[m->id()] < 0;
    };
    for (std::size_t i = 0; i < n_mod; ++i) {
      Module* m = modules[i].get();
      if (!is_free(m)) continue;
      // Walk upstream to the chain head ...
      Module* head = m;
      while (true) {
        Connection* ic = site(head).in_conn;
        Module* p = ic->producer();
        if (p == m || !is_free(p) || site(p).out_conn != ic) break;
        head = p;
      }
      // ... then collect downstream members.
      std::vector<Module*> members{head};
      while (true) {
        Connection* oc = site(members.back()).out_conn;
        Module* c = oc->consumer();
        if (c == head || !is_free(c) || site(c).in_conn != oc) break;
        members.push_back(c);
      }
      if (members.size() < 2) continue;
      // A pure ring of pass-throughs has no external producer to start a
      // sweep from; leave it to the normal resolution path.
      if (std::find(members.begin(), members.end(),
                    site(head).in_conn->producer()) != members.end()) {
        continue;
      }
      OptPlan::Chain ch;
      ch.links.push_back(site(head).in_conn);
      const auto idx = static_cast<std::int32_t>(chains.size());
      detail << "fuse: chain of " << members.size() << ":";
      for (Module* mem : members) {
        ch.members.push_back(mem);
        ch.links.push_back(site(mem).out_conn);
        ch.transforms.push_back(site(mem).decl->transform);
        chain_of_module[mem->id()] = idx;
        detail << ' ' << mem->name();
      }
      detail << '\n';
      // The forward sweep resolves the members' outputs (links 1..n); the
      // backward sweep resolves the members' input acks (links 0..n-1).
      for (std::size_t k = 1; k < ch.links.size(); ++k) {
        chain_of_channel[forward_channel(ch.links[k]->id())] = idx;
      }
      for (std::size_t k = 0; k + 1 < ch.links.size(); ++k) {
        chain_of_channel[backward_channel(ch.links[k]->id())] = idx;
      }
      chains.push_back(std::move(ch));
    }
  }

  // ---- Assemble and attach the plan --------------------------------------
  auto plan = std::make_shared<OptPlan>();
  plan->channel_const.assign(n_ch, 0);
  for (const auto& cp : netlist.connections()) {
    const ChannelFact& f = fact[forward_channel(cp->id())];
    if (!f.known) continue;
    plan->consts.push_back(
        {cp.get(), ChannelKind::Forward, f.asserted, f.value});
    plan->channel_const[forward_channel(cp->id())] = 1;
    ++report.const_forwards;
    detail << "const fwd: " << cp->describe() << " = "
           << (f.asserted ? f.value.to_string() : "idle") << '\n';
  }
  for (const auto& cp : netlist.connections()) {
    const ChannelFact& f = fact[backward_channel(cp->id())];
    if (!f.known) continue;
    plan->consts.push_back(
        {cp.get(), ChannelKind::Backward, f.asserted, liberty::Value()});
    plan->channel_const[backward_channel(cp->id())] = 1;
    ++report.const_backwards;
    detail << "const bwd: " << cp->describe() << " = "
           << (f.asserted ? "ack" : "nack") << '\n';
  }
  plan->elided = std::move(elided);
  plan->chains = std::move(chains);
  plan->chain_of_module = std::move(chain_of_module);
  plan->chain_of_channel = std::move(chain_of_channel);

  for (const char e : plan->elided) report.elided_modules += (e != 0);
  report.fused_chains = plan->chains.size();
  for (const OptPlan::Chain& ch : plan->chains) {
    report.fused_modules += ch.members.size();
  }
  report.detail = detail.str();
  netlist.set_opt_plan(std::move(plan));
  return report;
}

void write_annotated_dot(const Netlist& netlist, std::ostream& os) {
  const OptPlan* plan = netlist.opt_plan();
  // Chain colors cycle through a small palette.
  static const char* kChainColor[] = {"royalblue", "darkgreen", "darkorange",
                                      "purple", "firebrick", "teal"};
  constexpr std::size_t kNumColors = sizeof(kChainColor) / sizeof(char*);
  os << "digraph netlist {\n  rankdir=LR;\n  node [shape=box];\n";
  for (const auto& m : netlist.modules()) {
    os << "  m" << m->id() << " [label=\"" << m->name() << "\"";
    if (plan != nullptr) {
      if (plan->module_elided(m->id())) {
        os << ", style=dashed, color=gray, fontcolor=gray";
      } else {
        const std::int32_t chain =
            m->id() < plan->chain_of_module.size()
                ? plan->chain_of_module[m->id()]
                : -1;
        if (chain >= 0) {
          os << ", color=" << kChainColor[chain % kNumColors];
        }
      }
    }
    os << "];\n";
  }
  for (const auto& c : netlist.connections()) {
    os << "  m" << c->producer()->id() << " -> m" << c->consumer()->id()
       << " [label=\"" << c->producer_ref() << "\\n" << c->consumer_ref()
       << "\"";
    if (plan != nullptr) {
      const bool cf = plan->channel_const[forward_channel(c->id())] != 0;
      const bool cb = plan->channel_const[backward_channel(c->id())] != 0;
      if (cf && cb) {
        os << ", style=dotted";  // fully constant connection
      } else if (cf || cb) {
        os << ", style=dashed";  // one constant channel
      }
      const std::int32_t chain = plan->chain_of_channel[forward_channel(
          c->id())];
      if (chain >= 0) {
        os << ", color=" << kChainColor[chain % kNumColors];
      }
    }
    os << "];\n";
  }
  os << "}\n";
}

}  // namespace liberty::opt
