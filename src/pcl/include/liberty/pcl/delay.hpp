// Delay: fixed-latency pipeline element (models wire/stage latency).
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "liberty/core/module.hpp"
#include "liberty/core/params.hpp"

namespace liberty::pcl {

/// Values emerge `latency` cycles after acceptance, in order.
///
/// Parameters:
///   latency   cycles from acceptance to earliest delivery (>= 1)   [1]
///   capacity  in-flight entries (0 = latency, i.e. fully pipelined) [0]
///
/// With capacity == latency the element behaves like a rigid pipeline: it
/// accepts one value per cycle as long as the far end drains.
class Delay : public liberty::core::Module {
 public:
  Delay(const std::string& name, const liberty::core::Params& params);

  void cycle_start(liberty::core::Cycle c) override;
  void end_of_cycle() override;
  void declare_deps(liberty::core::Deps& deps) const override;
  void save_state(liberty::core::StateWriter& w) const override;
  void load_state(liberty::core::StateReader& r) override;

  [[nodiscard]] std::size_t in_flight() const noexcept {
    return items_.size();
  }
  [[nodiscard]] std::uint64_t latency() const noexcept { return latency_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Entry {
    liberty::Value value;
    liberty::core::Cycle ready;
  };

  liberty::core::Port& in_;
  liberty::core::Port& out_;
  std::uint64_t latency_;
  std::size_t capacity_;
  std::deque<Entry> items_;
};

}  // namespace liberty::pcl
