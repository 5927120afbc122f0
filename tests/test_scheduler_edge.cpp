// Scheduler edge cases: degenerate netlists and re-entrant runs must work
// identically under every scheduler, and the scheduler names front ends
// accept are exactly the four kinds.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "liberty/core/vcd.hpp"
#include "liberty/gen/compiled_scheduler.hpp"
#include "liberty/opt/optimizer.hpp"
#include "liberty/pcl/pcl.hpp"
#include "liberty/testing/netspec.hpp"
#include "liberty/testing/oracle.hpp"
#include "test_util.hpp"

namespace {

using liberty::Value;
using liberty::core::Connection;
using liberty::core::Cycle;
using liberty::core::Netlist;
using liberty::core::Params;
using liberty::core::SchedulerKind;
using liberty::core::Simulator;
using liberty::core::scheduler_kind_from_name;
using liberty::test::params;
using liberty::test::registry;

const SchedulerKind kAllKinds[] = {SchedulerKind::Dynamic,
                                   SchedulerKind::Static,
                                   SchedulerKind::Compiled};

TEST(SchedulerEdge, EmptyNetlistRunsEveryScheduler) {
  liberty::gen::ensure_registered();
  for (const SchedulerKind kind : kAllKinds) {
    Netlist netlist;
    netlist.finalize();
    Simulator sim(netlist, kind);
    EXPECT_EQ(sim.run(10), 10u);
    EXPECT_EQ(sim.now(), 10u);
  }
}

TEST(SchedulerEdge, SingleModuleNetlist) {
  // One module, zero connections: nothing to resolve, but hooks still run.
  liberty::gen::ensure_registered();
  for (const SchedulerKind kind : kAllKinds) {
    liberty::testing::NetSpec spec;
    spec.modules.push_back({"pcl.sink", "only", {}});
    Netlist netlist;
    spec.build(netlist, registry());
    Simulator sim(netlist, kind);
    EXPECT_EQ(sim.run(25), 25u);
  }
}

// A deterministic netlist with an arbiter merge (multi-node SCC), a demux
// fan-out (selector state) and four independent delay lanes.
void build_mixed(Netlist& nl) {
  using namespace liberty::pcl;
  auto& src = nl.make<Source>(
      "src", params({{"kind", "counter"}, {"period", 1}, {"count", 200}}));
  auto& dm = nl.make<Demux>("dm", Params());
  dm.set_selector(
      [](const Value& v) { return static_cast<std::size_t>(v.as_int() % 2); });
  auto& arb = nl.make<Arbiter>("arb", Params());
  auto& sink = nl.make<Sink>("sink", Params());
  nl.connect(src.out("out"), dm.in("in"));
  for (std::size_t i = 0; i < 2; ++i) {
    auto& q = nl.make<Queue>("q" + std::to_string(i),
                             params({{"depth", static_cast<int>(2 + i)}}));
    nl.connect_at(dm.out("out"), i, q.in("in"), 0);
    nl.connect(q.out("out"), arb.in("in"));
  }
  nl.connect(arb.out("out"), sink.in("in"));
  for (int i = 0; i < 4; ++i) {
    auto& s = nl.make<Source>(
        "ls" + std::to_string(i),
        params({{"kind", "counter"}, {"period", 1 + i % 2}}));
    auto& d = nl.make<Delay>("ld" + std::to_string(i),
                             params({{"latency", 1 + i}}));
    auto& k = nl.make<Sink>("lk" + std::to_string(i), Params());
    nl.connect(s.out("out"), d.in("in"));
    nl.connect(d.out("out"), k.in("in"));
  }
}

// Everything observable of one run: the VCD waveform, the textual transfer
// trace, and the per-module statistics dump.  A nonzero `opt_level` runs
// the optimizer over the finalized netlist first.
std::string run_traced(SchedulerKind kind, int opt_level = 0) {
  Netlist nl;
  build_mixed(nl);
  nl.finalize();
  if (opt_level > 0) {
    liberty::opt::optimize(nl, liberty::opt::OptOptions::for_level(opt_level));
  }
  Simulator sim(nl, kind);
  std::ostringstream vcd;
  liberty::core::VcdTracer tracer(nl, vcd);
  tracer.attach(sim);
  std::ostringstream transfers;
  sim.trace_transfers(transfers);
  sim.run(300);
  tracer.finish();
  std::ostringstream stats;
  nl.dump_stats(stats);
  return vcd.str() + "\n--transfers--\n" + transfers.str() + "\n--stats--\n" +
         stats.str();
}

TEST(SchedulerEdge, MixedNetlistTracesBitIdenticalAcrossSchedulers) {
  liberty::gen::ensure_registered();
  const std::string baseline = run_traced(SchedulerKind::Dynamic);
  ASSERT_NE(baseline.find("--transfers--"), std::string::npos);
  EXPECT_EQ(baseline, run_traced(SchedulerKind::Static));
  EXPECT_EQ(baseline, run_traced(SchedulerKind::Compiled));
}

// The static schedule is the reference the compiled program is lowered
// from; the -O2 plan (constants, elision, fused chains) must not change
// anything observable on top of it.
TEST(SchedulerEdge, MixedNetlistO2CompiledMatchesStatic) {
  liberty::gen::ensure_registered();
  const std::string reference = run_traced(SchedulerKind::Static);
  EXPECT_EQ(reference, run_traced(SchedulerKind::Static, 2));
  EXPECT_EQ(reference, run_traced(SchedulerKind::Compiled, 2));
}

TEST(SchedulerEdge, RunIsReentrantAfterStop) {
  liberty::testing::NetSpec spec;
  spec.modules.push_back({"pcl.source", "src",
                          params({{"kind", Value(std::string("counter"))},
                                  {"period", Value(std::int64_t{1})}})});
  spec.modules.push_back(
      {"pcl.sink", "snk",
       params({{"stop_after", Value(std::int64_t{10})}})});
  spec.edges.push_back({0, "out", 1, "in"});

  liberty::gen::ensure_registered();
  for (const SchedulerKind kind : kAllKinds) {
    Netlist netlist;
    spec.build(netlist, registry());
    Simulator sim(netlist, kind);

    const Cycle first = sim.run(100);
    EXPECT_GT(first, 0u);
    EXPECT_LT(first, 100u) << "stop_after never fired";

    // run() clears the pending stop on entry, so a second call resumes;
    // the sink's stop condition still holds and re-stops after one cycle.
    const Cycle second = sim.run(100);
    EXPECT_GE(second, 1u);
    EXPECT_LT(second, 100u);
    EXPECT_EQ(sim.now(), first + second);
  }
}

TEST(SchedulerKindName, ParsesEverySpelling) {
  EXPECT_EQ(scheduler_kind_from_name("dyn"), SchedulerKind::Dynamic);
  EXPECT_EQ(scheduler_kind_from_name("dynamic"), SchedulerKind::Dynamic);
  EXPECT_EQ(scheduler_kind_from_name("static"), SchedulerKind::Static);
  EXPECT_EQ(scheduler_kind_from_name("comp"), SchedulerKind::Compiled);
  EXPECT_EQ(scheduler_kind_from_name("compiled"), SchedulerKind::Compiled);
  EXPECT_EQ(scheduler_kind_from_name("native"), SchedulerKind::Native);
  EXPECT_THROW((void)scheduler_kind_from_name("greedy"),
               liberty::ElaborationError);
}

TEST(SchedulerKindName, RejectsParallelListingTheFourKinds) {
  for (const char* name : {"parallel", "par"}) {
    try {
      (void)scheduler_kind_from_name(name);
      ADD_FAILURE() << name << " was accepted";
    } catch (const liberty::ElaborationError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(std::string("'") + name + "'"), std::string::npos)
          << msg;
      EXPECT_NE(msg.find("(valid: dyn|dynamic, static, comp|compiled, "
                         "native)"),
                std::string::npos)
          << msg;
    }
  }
}

}  // namespace
