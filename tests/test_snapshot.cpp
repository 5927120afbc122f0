// Kernel snapshot/restore: the state-serialization substrate the
// differential oracle's bisection rests on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "liberty/core/state.hpp"
#include "liberty/gen/compiled_scheduler.hpp"
#include "liberty/opt/optimizer.hpp"
#include "liberty/support/error.hpp"
#include "liberty/testing/netspec.hpp"
#include "test_util.hpp"

namespace {

using liberty::SimulationError;
using liberty::Value;
using liberty::core::Connection;
using liberty::core::Cycle;
using liberty::core::KernelSnapshot;
using liberty::core::Netlist;
using liberty::core::Simulator;
using liberty::core::StateReader;
using liberty::core::StateWriter;
using liberty::test::params;
using liberty::test::registry;

liberty::testing::NetSpec pipeline_spec() {
  liberty::testing::NetSpec spec;
  spec.modules.push_back({"pcl.source", "src",
                          params({{"kind", Value(std::string("counter"))},
                                  {"period", Value(std::int64_t{1})}})});
  spec.modules.push_back(
      {"pcl.queue", "q", params({{"depth", Value(std::int64_t{3})}})});
  spec.modules.push_back({"pcl.sink", "snk", {}});
  spec.edges.push_back({0, "out", 1, "in"});
  spec.edges.push_back({1, "out", 2, "in"});
  return spec;
}

liberty::testing::NetSpec stochastic_spec() {
  liberty::testing::NetSpec spec;
  spec.modules.push_back({"pcl.source", "src",
                          params({{"kind", Value(std::string("random"))},
                                  {"period", Value(std::int64_t{2})},
                                  {"seed", Value(std::int64_t{99})}})});
  spec.modules.push_back(
      {"pcl.delay", "d", params({{"latency", Value(std::int64_t{2})}})});
  spec.modules.push_back({"pcl.sink", "snk", {}});
  spec.edges.push_back({0, "out", 1, "in"});
  spec.edges.push_back({1, "out", 2, "in"});
  return spec;
}

std::vector<std::string> record_transfers(Simulator& sim,
                                          std::vector<std::string>& into) {
  sim.observe_transfers([&into](const Connection& c, Cycle cycle) {
    into.push_back(std::to_string(cycle) + ":" + std::to_string(c.id()) +
                   "=" + c.data().to_string());
  });
  return into;
}

TEST(StateIo, RoundTripAllSlotTypes) {
  StateWriter w;
  w.put_bool(true);
  w.put_i64(-42);
  w.put_u64(0xdeadbeefULL);
  w.put_size(17);
  w.put_real(2.5);
  w.put_string("hello");
  EXPECT_EQ(w.slots().size(), 6u);

  const std::vector<Value> slots = std::move(w).take();
  StateReader r(slots, "test");
  EXPECT_TRUE(r.get_bool());
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_EQ(r.get_u64(), 0xdeadbeefULL);
  EXPECT_EQ(r.get_size(), 17u);
  EXPECT_DOUBLE_EQ(r.get_real(), 2.5);
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(StateIo, UnderflowThrowsWithModuleName) {
  const std::vector<Value> slots = {Value(std::int64_t{1})};
  StateReader r(slots, "offender");
  (void)r.get_i64();
  try {
    (void)r.get_i64();
    FAIL() << "expected SimulationError";
  } catch (const SimulationError& e) {
    EXPECT_NE(std::string(e.what()).find("offender"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("underflow"), std::string::npos);
  }
}

TEST(StateIo, DigestIsContentNotIdentity) {
  StateWriter a;
  a.put_string("same");
  a.put_i64(7);
  StateWriter b;
  b.put_string(std::string("sa") + "me");
  b.put_i64(7);
  EXPECT_EQ(liberty::core::digest_slots(a.slots()),
            liberty::core::digest_slots(b.slots()));

  StateWriter c;
  c.put_string("different");
  c.put_i64(7);
  EXPECT_NE(liberty::core::digest_slots(a.slots()),
            liberty::core::digest_slots(c.slots()));
}

// The core guarantee: restore + replay reproduces the original execution
// transfer for transfer, ending in the same state digest.
TEST(Snapshot, RestoreReplayIsBitIdentical) {
  for (const auto& spec : {pipeline_spec(), stochastic_spec()}) {
    Netlist netlist;
    spec.build(netlist, registry());
    Simulator sim(netlist);

    std::vector<std::string> log;
    record_transfers(sim, log);

    for (int i = 0; i < 40; ++i) sim.step();
    const KernelSnapshot snap = sim.snapshot();
    EXPECT_EQ(snap.cycle, 40u);

    log.clear();
    for (int i = 0; i < 40; ++i) sim.step();
    const std::vector<std::string> original = log;
    const std::uint64_t end_digest = sim.snapshot().digest();

    sim.restore(snap);
    EXPECT_EQ(sim.now(), 40u);
    EXPECT_EQ(sim.snapshot().digest(), snap.digest());

    log.clear();
    for (int i = 0; i < 40; ++i) sim.step();
    EXPECT_EQ(log, original);
    EXPECT_EQ(sim.snapshot().digest(), end_digest);
  }
}

// Restored state must be loadable into a *fresh* elaboration of the same
// spec — that is how the oracle builds its bisection simulators.
TEST(Snapshot, RestoreIntoFreshNetlist) {
  const auto spec = stochastic_spec();
  Netlist first;
  spec.build(first, registry());
  Simulator sim_a(first);
  std::vector<std::string> log_a;
  record_transfers(sim_a, log_a);
  for (int i = 0; i < 30; ++i) sim_a.step();
  const KernelSnapshot snap = sim_a.snapshot();
  log_a.clear();
  for (int i = 0; i < 30; ++i) sim_a.step();

  Netlist second;
  spec.build(second, registry());
  Simulator sim_b(second);
  sim_b.restore(snap);
  EXPECT_EQ(sim_b.now(), 30u);
  std::vector<std::string> log_b;
  record_transfers(sim_b, log_b);
  for (int i = 0; i < 30; ++i) sim_b.step();
  EXPECT_EQ(log_b, log_a);
}

// A restore rewinds module state underneath the -O2 plan's in-flight
// scheduler state (fused-chain sweep stamps, pre-resolved constants), so
// the replay after restore must match the original run bit for bit.
TEST(Snapshot, RestoreUnderO2ReplaysBitIdentical) {
  liberty::gen::ensure_registered();
  for (const auto& spec : {pipeline_spec(), stochastic_spec()}) {
    Netlist netlist;
    spec.build(netlist, registry());
    liberty::opt::optimize(netlist, liberty::opt::OptOptions::for_level(2));
    for (const auto kind : {liberty::core::SchedulerKind::Dynamic,
                            liberty::core::SchedulerKind::Static,
                            liberty::core::SchedulerKind::Compiled}) {
      Simulator sim(netlist, kind);
      std::vector<std::string> log;
      record_transfers(sim, log);

      for (int i = 0; i < 40; ++i) sim.step();
      const KernelSnapshot snap = sim.snapshot();
      log.clear();
      for (int i = 0; i < 40; ++i) sim.step();
      const std::vector<std::string> original = log;
      const std::uint64_t end_digest = sim.snapshot().digest();

      sim.restore(snap);
      log.clear();
      for (int i = 0; i < 40; ++i) sim.step();
      EXPECT_EQ(log, original) << "scheduler kind "
                               << static_cast<int>(kind);
      EXPECT_EQ(sim.snapshot().digest(), end_digest);
    }
  }
}

/// Three bursty stamped sources contending through an arbiter for one
/// sink: arrivals average 0.9 per cycle against a service rate of 1, so
/// queue occupancy — and with it each queue's save_state slot count —
/// rises and falls from cycle to cycle.
liberty::testing::NetSpec contention_spec() {
  liberty::testing::NetSpec spec;
  for (std::int64_t i = 0; i < 3; ++i) {
    const std::string n = std::to_string(i);
    spec.modules.push_back({"pcl.source", "src" + n,
                            params({{"kind", Value(std::string("random"))},
                                    {"period", Value(std::int64_t{0})},
                                    {"rate", Value(0.3)},
                                    {"seed", Value(11 + i)},
                                    {"stamp", Value(true)}})});
    spec.modules.push_back(
        {"pcl.queue", "q" + n, params({{"depth", Value(std::int64_t{8})}})});
  }
  spec.modules.push_back({"pcl.arbiter", "arb", {}});
  spec.modules.push_back({"pcl.sink", "snk", {}});
  for (std::size_t i = 0; i < 3; ++i) {
    spec.edges.push_back({2 * i, "out", 2 * i + 1, "in"});
    spec.edges.push_back({2 * i + 1, "out", 6, "in"});
  }
  spec.edges.push_back({6, "out", 7, "in"});
  return spec;
}

// snapshot_into refills one KernelSnapshot's slot vectors in place; a
// vector that held more slots last time must not keep stale ones.  Every
// refill must equal a fresh snapshot(), and a restore from the recycled
// snapshot must replay bit-identically.
TEST(Snapshot, SnapshotIntoReusedAcrossGrowAndShrinkMatchesFresh) {
  Netlist netlist;
  contention_spec().build(netlist, registry());
  Simulator sim(netlist, liberty::core::SchedulerKind::Static);
  std::vector<std::string> log;
  record_transfers(sim, log);

  KernelSnapshot reused;
  std::vector<std::size_t> prev;
  bool grew = false;
  bool shrank_now = false;
  // Refill after every cycle until some module's slot count has grown
  // earlier and shrunk in the latest refill.
  for (int i = 0; i < 2000 && !(grew && shrank_now); ++i) {
    sim.step();
    sim.snapshot_into(reused);
    const KernelSnapshot fresh = sim.snapshot();
    ASSERT_EQ(reused.cycle, fresh.cycle);
    ASSERT_EQ(reused.module_state.size(), fresh.module_state.size());
    std::vector<std::size_t> sizes;
    for (std::size_t m = 0; m < fresh.module_state.size(); ++m) {
      sizes.push_back(reused.module_state[m].size());
      ASSERT_EQ(sizes[m], fresh.module_state[m].size()) << "module " << m;
    }
    shrank_now = false;
    for (std::size_t m = 0; m < prev.size(); ++m) {
      if (sizes[m] > prev[m]) grew = true;
      if (sizes[m] < prev[m]) shrank_now = true;
    }
    prev = std::move(sizes);
    ASSERT_EQ(reused.digest(), fresh.digest()) << "cycle " << sim.now();
  }
  ASSERT_TRUE(grew && shrank_now) << "occupancy never rose and fell";

  const Cycle at = sim.now();
  log.clear();
  for (int i = 0; i < 60; ++i) sim.step();
  const std::vector<std::string> original = log;
  const std::uint64_t end_digest = sim.snapshot().digest();

  sim.restore(reused);
  EXPECT_EQ(sim.now(), at);
  log.clear();
  for (int i = 0; i < 60; ++i) sim.step();
  EXPECT_EQ(log, original);
  EXPECT_EQ(sim.snapshot().digest(), end_digest);
}

TEST(Snapshot, DigestEvolvesWithState) {
  Netlist netlist;
  pipeline_spec().build(netlist, registry());
  Simulator sim(netlist);
  const std::uint64_t d0 = sim.snapshot().digest();
  for (int i = 0; i < 25; ++i) sim.step();
  EXPECT_NE(sim.snapshot().digest(), d0);
}

TEST(Snapshot, RestoreRejectsShapeMismatch) {
  Netlist a;
  pipeline_spec().build(a, registry());
  Simulator sim_a(a);
  for (int i = 0; i < 5; ++i) sim_a.step();
  const KernelSnapshot snap = sim_a.snapshot();

  // Different module count: refuse outright.
  liberty::testing::NetSpec small;
  small.modules.push_back({"pcl.source", "src",
                           params({{"kind", Value(std::string("counter"))}})});
  small.modules.push_back({"pcl.sink", "snk", {}});
  small.edges.push_back({0, "out", 1, "in"});
  Netlist b;
  small.build(b, registry());
  Simulator sim_b(b);
  EXPECT_THROW(sim_b.restore(snap), SimulationError);

  // Same module count, different module types: the positional protocol
  // cannot line up, and the kernel must say so rather than misload.
  liberty::testing::NetSpec twisted = pipeline_spec();
  twisted.modules[1] = {"pcl.probe", "q", {}};
  Netlist c;
  twisted.build(c, registry());
  Simulator sim_c(c);
  EXPECT_THROW(sim_c.restore(snap), SimulationError);
}

}  // namespace
