// Dataflow steering primitives: Tee (fan-out), Mux (select by control),
// Demux (route by content), Crossbar (N x M with per-output arbitration).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "liberty/core/module.hpp"
#include "liberty/core/params.hpp"

namespace liberty::pcl {

/// Replicates its input to every connected output endpoint.  The input is
/// accepted only once *all* outputs have accepted (synchronous broadcast).
/// Branches that accept early are remembered across cycles so a stalled
/// branch neither loses the value for itself nor duplicates it to others.
class Tee : public liberty::core::Module {
 public:
  Tee(const std::string& name, const liberty::core::Params& params);

  void init() override;
  void react() override;
  void end_of_cycle() override;
  void declare_deps(liberty::core::Deps& deps) const override;
  void save_state(liberty::core::StateWriter& w) const override;
  void load_state(liberty::core::StateReader& r) override;

 private:
  liberty::core::Port& in_;
  liberty::core::Port& out_;
  std::vector<bool> delivered_;  // per-branch: current item already taken
  liberty::Counter* broadcasts_stat_ = nullptr;  // resolved-once stat handle
};

/// Selects one data input according to the integer on the `sel` port.
/// With no selection offered, the output idles and all inputs are refused.
class Mux : public liberty::core::Module {
 public:
  Mux(const std::string& name, const liberty::core::Params& params);

  void react() override;
  void declare_deps(liberty::core::Deps& deps) const override;

 private:
  liberty::core::Port& in_;
  liberty::core::Port& sel_;
  liberty::core::Port& out_;
};

/// Routes each input value to one output endpoint chosen by a selector.
///
/// The default selector understands pcl::Routable payloads (route_key()
/// modulo the output width) and integer values; set_selector() installs an
/// arbitrary policy — an algorithmic parameter in the paper's sense.
class Demux : public liberty::core::Module {
 public:
  using Selector = std::function<std::size_t(const liberty::Value&)>;

  Demux(const std::string& name, const liberty::core::Params& params);

  void react() override;
  void declare_deps(liberty::core::Deps& deps) const override;

  void set_selector(Selector s) { selector_ = std::move(s); }

 private:
  [[nodiscard]] std::size_t route(const liberty::Value& v) const;

  liberty::core::Port& in_;
  liberty::core::Port& out_;
  Selector selector_;
};

/// N-input M-output crossbar: each input routes (Demux-style selector) to
/// an output; per-output round-robin arbitration among competing inputs.
///
/// Stats: xfers, conflicts.
class Crossbar : public liberty::core::Module {
 public:
  using Selector = std::function<std::size_t(const liberty::Value&)>;

  Crossbar(const std::string& name, const liberty::core::Params& params);

  void cycle_start(liberty::core::Cycle c) override;
  void react() override;
  void end_of_cycle() override;
  void init() override;
  void declare_deps(liberty::core::Deps& deps) const override;
  void save_state(liberty::core::StateWriter& w) const override;
  void load_state(liberty::core::StateReader& r) override;

  void set_selector(Selector s) { selector_ = std::move(s); }

 private:
  [[nodiscard]] std::size_t route(const liberty::Value& v) const;

  liberty::core::Port& in_;
  liberty::core::Port& out_;
  Selector selector_;
  std::vector<std::size_t> rr_;      // per-output rotation pointer
  std::vector<int> grant_;           // per-output granted input, -1 none

  // Resolved-once stat handles (see StatSet::bind).
  liberty::Counter* conflicts_stat_ = nullptr;
  liberty::Counter* xfers_stat_ = nullptr;
  bool decided_ = false;
};

}  // namespace liberty::pcl
