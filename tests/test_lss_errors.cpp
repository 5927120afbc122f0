// LSS error paths: every malformed specification must die with a located,
// actionable diagnostic — never a crash, never a silently wrong netlist.
#include <gtest/gtest.h>

#include <string>

#include "liberty/core/lss/elaborator.hpp"
#include "liberty/core/scheduler.hpp"
#include "liberty/core/simulator.hpp"
#include "liberty/support/error.hpp"
#include "test_util.hpp"

namespace {

using liberty::test::registry;

/// Elaborate `src` and return the diagnostic it dies with ("" = accepted).
std::string diagnostic(const std::string& src) {
  liberty::core::Netlist netlist;
  try {
    liberty::core::lss::build_from_lss(src, "test.lss", netlist, registry());
  } catch (const liberty::Error& e) {
    return e.what();
  }
  return {};
}

void expect_diag(const std::string& src, const std::string& needle) {
  const std::string msg = diagnostic(src);
  ASSERT_FALSE(msg.empty()) << "spec was accepted:\n" << src;
  EXPECT_NE(msg.find(needle), std::string::npos)
      << "diagnostic \"" << msg << "\" lacks \"" << needle << "\"";
}

TEST(LssErrors, UnterminatedStringLiteral) {
  expect_diag("param P = \"oops;\n", "unterminated string literal");
}

TEST(LssErrors, UnterminatedBlockComment) {
  expect_diag("instance s : pcl.sink;\n/* runs off the end",
              "unterminated block comment");
}

TEST(LssErrors, UnknownEscapeInString) {
  expect_diag("param P = \"bad\\q\";\n", "unknown escape in string literal");
}

TEST(LssErrors, UnknownModuleTemplate) {
  expect_diag("instance x : no.such.thing;\n",
              "unknown module template 'no.such.thing'");
}

TEST(LssErrors, SelfRecursiveModuleHitsDepthLimit) {
  // A module that instantiates itself must be cut off by the depth
  // limiter, not by the process stack.
  expect_diag(
      "module a {\n"
      "  instance inner : a;\n"
      "}\n"
      "instance top : a;\n",
      "depth exceeds 256");
}

TEST(LssErrors, DeclaredPortNeverExported) {
  expect_diag(
      "module m {\n"
      "  inport in;\n"
      "  instance q : pcl.queue;\n"
      "}\n"
      "instance x : m;\n",
      "module 'm' declares port 'in' but never exports it");
}

TEST(LssErrors, ParamRedefinitionInSameScope) {
  expect_diag(
      "param P = 1;\n"
      "param P = 2;\n",
      "redefinition of 'P' in the same scope");
}

TEST(LssErrors, DuplicateInstanceName) {
  expect_diag(
      "instance a : pcl.sink;\n"
      "instance a : pcl.sink;\n",
      "duplicate module instance name 'a'");
}

TEST(LssErrors, UnderConnectedPortFailsFinalize) {
  // pcl.probe demands exactly one input connection; elaboration succeeds
  // but finalize must flag the dangling port.
  expect_diag("instance p : pcl.probe;\n", "requires at least 1");
}

TEST(LssErrors, ConnectToUnknownInstance) {
  expect_diag(
      "instance s : pcl.sink;\n"
      "connect ghost.out -> s.in;\n",
      "no instance named 'ghost'");
}

TEST(LssErrors, DiagnosticsCarrySourceLocation) {
  const std::string msg =
      diagnostic("instance x : no.such.module;\n");
  EXPECT_NE(msg.find("test.lss:1:"), std::string::npos) << msg;
}

// A specification with a purely combinational feedback ring elaborates
// fine — the failure is at runtime, when the fixed point cannot settle
// within the configured iteration cap (lss_run --max-iters).  The
// diagnostic must name the channel chain forming the loop and point at
// the knob, not just report a generic timeout.
TEST(LssErrors, CombinationalLoopDiagnosedWithChannelChain) {
  const std::string src =
      "instance src : pcl.source { kind = \"counter\"; period = 1; };\n"
      "instance arb : pcl.arbiter;\n"
      "instance tee : pcl.tee;\n"
      "instance snk : pcl.sink;\n"
      "connect src.out -> arb.in;\n"
      "connect arb.out -> tee.in;\n"
      "connect tee.out -> arb.in;\n"
      "connect tee.out -> snk.in;\n";
  liberty::core::Netlist netlist;
  liberty::core::lss::build_from_lss(src, "loop.lss", netlist, registry());
  // The analyzed scheduler isolates the ring as an SCC and counts fixed-
  // point passes per group, so the cap fires with the loop attributed
  // (the dynamic scheduler may trip the non-monotone-drive check first,
  // depending on worklist order).
  liberty::core::Simulator sim(netlist, liberty::core::SchedulerKind::Static);
  sim.scheduler().set_iteration_cap(1);
  try {
    sim.run(10);
    FAIL() << "combinational loop converged under cap 1?";
  } catch (const liberty::SimulationError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("combinational loop via"), std::string::npos) << msg;
    EXPECT_NE(msg.find("arb"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--max-iters"), std::string::npos) << msg;
  }
}

}  // namespace
