// Native codegen backend (liberty::gen native): eligibility, bit-identity
// against the dynamic reference at -O0 and -O2, graceful degradation when
// the toolchain fails, artifact-cache hygiene, and mid-flight
// snapshot/restore.  The cache-key unit tests run in every build; the
// rest skip cleanly when LIBERTY_NATIVE_CODEGEN is OFF.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "liberty/core/state.hpp"
#include "liberty/gen/native.hpp"
#include "liberty/opt/optimizer.hpp"
#include "liberty/scenario/rack.hpp"
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
using liberty::pcl::Delay;
using liberty::pcl::Queue;
using liberty::pcl::Sink;
using liberty::pcl::Source;
using liberty::test::params;

// ---------------------------------------------------------------------------
// Cache key: pure, present in every build.

TEST(NativeCacheKey, EveryIngredientKeysTheArtifact) {
  const std::string src = "extern \"C\" int f();";
  const auto base = liberty::gen::native_cache_key(src, "g++ 12.2.0", 2);
  EXPECT_EQ(base, liberty::gen::native_cache_key(src, "g++ 12.2.0", 2));
  EXPECT_NE(base, liberty::gen::native_cache_key(src + " ", "g++ 12.2.0", 2));
  // A compiler upgrade alone must retire the cache entry.
  EXPECT_NE(base, liberty::gen::native_cache_key(src, "g++ 13.1.0", 2));
  EXPECT_NE(base, liberty::gen::native_cache_key(src, "g++ 12.2.0", 0));
}

TEST(NativeCacheKey, FieldBoundariesDoNotCollide) {
  EXPECT_NE(liberty::gen::native_cache_key("ab", "c", 0),
            liberty::gen::native_cache_key("a", "bc", 0));
}

// ---------------------------------------------------------------------------
// Build-configuration gates: both of these run (and pass) whether or not
// the backend was built; the first documents the skip, the second proves
// SchedulerKind::Native always yields a working simulator.

TEST(NativeBackend, AvailabilityGate) {
  if (!liberty::gen::native_available()) {
    GTEST_SKIP() << "built with LIBERTY_NATIVE_CODEGEN=OFF; "
                    "--scheduler native degrades to compiled bytecode";
  }
}

TEST(NativeBackend, NativeKindAlwaysConstructs) {
  liberty::gen::ensure_registered();
  Netlist nl;
  auto& s = nl.make<Source>(
      "s", params({{"kind", "counter"}, {"period", 1}, {"count", 20}}));
  auto& k = nl.make<Sink>("k", params({{"stop_after", 20}}));
  nl.connect(s.out("out"), k.in("in"));
  nl.finalize();
  Simulator sim(nl, SchedulerKind::Native);
  sim.run(100);
  EXPECT_EQ(k.consumed(), 20u);
}

#if defined(LIBERTY_NATIVE_CODEGEN)

using liberty::gen::NativeScheduler;

/// Every fixture run gets its own artifact cache (and cleans it up), so
/// invocation-count assertions cannot see artifacts from other tests.
class NativeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!liberty::gen::native_available()) {
      GTEST_SKIP() << "built with LIBERTY_NATIVE_CODEGEN=OFF";
    }
    liberty::gen::ensure_registered();
    char tmpl[] = "/tmp/liberty-native-test-XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    cache_dir_ = tmpl;
    liberty::gen::native_options().cache_dir = cache_dir_;
  }
  void TearDown() override {
    liberty::gen::native_options() = liberty::gen::NativeOptions{};
    if (!cache_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(cache_dir_, ec);
    }
  }
  std::string cache_dir_;
};

/// Two emitter-eligible chains (one counter lane with a delay, one token
/// lane) plus, optionally, a rate-driven stochastic chain the emitter has
/// no recipe for — that one must keep running on the bytecode tapes of
/// the same scheduler.
void build_chains(Netlist& nl, bool with_residue) {
  auto& a0 = nl.make<Source>(
      "a0", params({{"kind", "counter"}, {"period", 1}, {"count", 400}}));
  auto& a1 = nl.make<Queue>("a1", params({{"depth", 4}}));
  auto& a2 = nl.make<Delay>("a2", params({{"latency", 3}}));
  auto& a3 = nl.make<Sink>("a3", Params());
  nl.connect(a0.out("out"), a1.in("in"));
  nl.connect(a1.out("out"), a2.in("in"));
  nl.connect(a2.out("out"), a3.in("in"));

  auto& b0 = nl.make<Source>(
      "b0", params({{"kind", "token"}, {"period", 3}, {"start", 5}}));
  auto& b1 = nl.make<Queue>("b1", params({{"depth", 2}}));
  auto& b2 = nl.make<Sink>("b2", Params());
  nl.connect(b0.out("out"), b1.in("in"));
  nl.connect(b1.out("out"), b2.in("in"));

  if (with_residue) {
    auto& c0 = nl.make<Source>(
        "c0", params({{"kind", "random"}, {"period", 0}, {"rate", 0.6},
                      {"seed", 11}, {"stamp", true}}));
    auto& c1 = nl.make<Queue>("c1", params({{"depth", 3}}));
    auto& c2 = nl.make<Sink>("c2", Params());
    nl.connect(c0.out("out"), c1.in("in"));
    nl.connect(c1.out("out"), c2.in("in"));
  }
  nl.finalize();
}

struct RunResult {
  std::vector<std::string> transfers;
  std::string digest;
  std::string stats;
};

RunResult run_chains(SchedulerKind kind, bool with_residue, int opt_level,
                     Cycle cycles) {
  Netlist nl;
  build_chains(nl, with_residue);
  if (opt_level > 0) {
    (void)liberty::opt::optimize(
        nl, liberty::opt::OptOptions::for_level(opt_level));
  }
  Simulator sim(nl, kind);
  RunResult r;
  sim.observe_transfers([&r](const Connection& c, Cycle cycle) {
    r.transfers.push_back(std::to_string(cycle) + ":" +
                          std::to_string(c.id()) + "=" +
                          c.data().to_string());
  });
  sim.run(cycles);
  r.digest = sim.snapshot().digest();
  std::ostringstream oss;
  nl.dump_stats(oss);
  r.stats = oss.str();
  return r;
}

TEST_F(NativeTest, EligibleChainsRunOnTheImage) {
  Netlist nl;
  build_chains(nl, /*with_residue=*/true);
  NativeScheduler sched(nl);
  EXPECT_TRUE(sched.native_active());
  EXPECT_EQ(sched.native_module_count(), 7u);   // chains a (4) + b (3)
  EXPECT_EQ(sched.native_channel_count(), 5u);  // 3 + 2 links
  EXPECT_NE(sched.native_source().find("ln_start"), std::string::npos);
}

TEST_F(NativeTest, WholeNetlistFallsBackWhenNothingIsEligible) {
  Netlist nl;
  auto& s = nl.make<Source>(
      "s", params({{"kind", "random"}, {"period", 0}, {"rate", 0.5}}));
  auto& k = nl.make<Sink>("k", Params());
  nl.connect(s.out("out"), k.in("in"));
  nl.finalize();
  NativeScheduler sched(nl);
  EXPECT_FALSE(sched.native_active());
  EXPECT_TRUE(sched.native_source().empty());
}

TEST_F(NativeTest, BitIdenticalToDynamicAtO0AndO2) {
  for (const int opt_level : {0, 2}) {
    const RunResult dyn =
        run_chains(SchedulerKind::Dynamic, true, opt_level, 600);
    const RunResult nat =
        run_chains(SchedulerKind::Native, true, opt_level, 600);
    EXPECT_EQ(dyn.transfers, nat.transfers) << "-O" << opt_level;
    EXPECT_EQ(dyn.digest, nat.digest) << "-O" << opt_level;
    EXPECT_EQ(dyn.stats, nat.stats) << "-O" << opt_level;
    EXPECT_FALSE(nat.transfers.empty());
  }
}

TEST_F(NativeTest, ForcedCompileFailureDegradesToBytecode) {
  ASSERT_EQ(::setenv("LIBERTY_NATIVE_FORCE_FAIL", "1", 1), 0);
  Netlist nl;
  build_chains(nl, /*with_residue=*/false);
  NativeScheduler degraded(nl);
  EXPECT_FALSE(degraded.native_active());
  ::unsetenv("LIBERTY_NATIVE_FORCE_FAIL");

  // The degraded scheduler still runs the netlist bit-identically.
  const RunResult dyn = run_chains(SchedulerKind::Dynamic, false, 0, 300);
  ASSERT_EQ(::setenv("LIBERTY_NATIVE_FORCE_FAIL", "1", 1), 0);
  const RunResult nat = run_chains(SchedulerKind::Native, false, 0, 300);
  ::unsetenv("LIBERTY_NATIVE_FORCE_FAIL");
  EXPECT_EQ(dyn.transfers, nat.transfers);
  EXPECT_EQ(dyn.digest, nat.digest);
  EXPECT_EQ(dyn.stats, nat.stats);
}

TEST_F(NativeTest, SecondElaborationHitsTheCache) {
  const auto build_once = [] {
    Netlist nl;
    build_chains(nl, /*with_residue=*/false);
    NativeScheduler sched(nl);
    return sched.native_active();
  };
  const std::uint64_t before = liberty::gen::native_compile_invocations();
  ASSERT_TRUE(build_once());
  const std::uint64_t after_first = liberty::gen::native_compile_invocations();
  EXPECT_EQ(after_first, before + 1);  // cold: exactly one compile
  ASSERT_TRUE(build_once());
  // Identical netlist, same cache: the artifact is reused, the host
  // compiler is not invoked again.
  EXPECT_EQ(liberty::gen::native_compile_invocations(), after_first);
}

TEST_F(NativeTest, MidFlightSnapshotRestoreReplaysIdentically) {
  Netlist nl;
  build_chains(nl, /*with_residue=*/true);
  Simulator sim(nl, SchedulerKind::Native);
  sim.run(75);
  const auto snap = sim.snapshot();
  sim.run(50);
  const auto first = sim.snapshot().digest();

  sim.restore(snap);
  EXPECT_EQ(sim.snapshot().digest(), snap.digest());
  sim.run(50);
  EXPECT_EQ(sim.snapshot().digest(), first);

  // And the replayed trajectory is the dynamic one: a fresh dynamic
  // simulator reaches the same state digest at the same cycle.
  Netlist ref;
  build_chains(ref, /*with_residue=*/true);
  Simulator dyn(ref, SchedulerKind::Dynamic);
  dyn.run(125);
  EXPECT_EQ(dyn.snapshot().digest(), first);
}

TEST_F(NativeTest, TruncatedCacheArtifactIsQuarantinedAndRunDegrades) {
  const auto build_once = [] {
    Netlist nl;
    build_chains(nl, /*with_residue=*/false);
    NativeScheduler sched(nl);
    return sched.native_active();
  };
  ASSERT_TRUE(build_once());  // populate the cache

  // Truncate the cached image, simulating a torn write or partial copy.
  std::filesystem::path so;
  for (const auto& e : std::filesystem::directory_iterator(cache_dir_)) {
    if (e.path().extension() == ".so") so = e.path();
  }
  ASSERT_FALSE(so.empty());
  std::filesystem::resize_file(so, std::filesystem::file_size(so) / 2);

  // The next elaboration detects the size mismatch against the manifest,
  // quarantines the artifact, and degrades to bytecode — it does NOT
  // recompile behind the operator's back, and it does not dlopen garbage.
  const std::uint64_t compiles = liberty::gen::native_compile_invocations();
  const std::uint64_t quarantined = liberty::gen::native_cache_quarantined();
  ASSERT_FALSE(build_once());
  EXPECT_EQ(liberty::gen::native_compile_invocations(), compiles);
  EXPECT_EQ(liberty::gen::native_cache_quarantined(), quarantined + 1);
  EXPECT_FALSE(std::filesystem::exists(so));
  EXPECT_TRUE(std::filesystem::exists(so.string() + ".quarantined"));

  // The degraded run is still bit-identical to dynamic...
  const RunResult dyn = run_chains(SchedulerKind::Dynamic, false, 0, 300);
  const RunResult nat = run_chains(SchedulerKind::Native, false, 0, 300);
  EXPECT_EQ(dyn.transfers, nat.transfers);
  EXPECT_EQ(dyn.digest, nat.digest);

  // ...and the slot is vacant, so the next elaboration recompiles.
  ASSERT_TRUE(build_once());
  EXPECT_GT(liberty::gen::native_compile_invocations(), compiles);
}

TEST_F(NativeTest, HungCompilerIsKilledRetriedAndDegradesToBytecode) {
  // A fake compiler that identifies itself but never finishes compiling.
  const std::string fake = cache_dir_ + "/fakecc";
  {
    std::ofstream f(fake);
    f << "#!/bin/sh\n"
         "if [ \"$1\" = \"--version\" ]; then echo fakecc 1.0; exit 0; fi\n"
         "sleep 30\n";
  }
  ASSERT_EQ(::chmod(fake.c_str(), 0755), 0);
  ASSERT_EQ(::setenv("LIBERTY_NATIVE_CXX", fake.c_str(), 1), 0);
  ASSERT_EQ(::setenv("LIBERTY_NATIVE_COMPILE_TIMEOUT_MS", "150", 1), 0);

  const std::uint64_t compiles = liberty::gen::native_compile_invocations();
  const std::uint64_t timeouts = liberty::gen::native_compile_timeouts();
  const std::uint64_t retries = liberty::gen::native_compile_retries();
  Netlist nl;
  build_chains(nl, /*with_residue=*/false);
  NativeScheduler degraded(nl);
  ::unsetenv("LIBERTY_NATIVE_CXX");
  ::unsetenv("LIBERTY_NATIVE_COMPILE_TIMEOUT_MS");

  // Both attempts hit the wall-clock deadline and were killed; the retry
  // was counted; the scheduler fell back to bytecode instead of hanging.
  EXPECT_FALSE(degraded.native_active());
  EXPECT_EQ(liberty::gen::native_compile_invocations(), compiles + 2);
  EXPECT_EQ(liberty::gen::native_compile_timeouts(), timeouts + 2);
  EXPECT_EQ(liberty::gen::native_compile_retries(), retries + 1);
}

TEST_F(NativeTest, RackScenarioDigestMatchesDynamic) {
  liberty::core::ModuleRegistry registry;
  liberty::scenario::register_rack_libraries(registry);
  liberty::scenario::RackConfig cfg;  // default 2x2 mesh
  cfg.cycles = 2000;
  liberty::testing::NetSpec spec = liberty::scenario::rack_netspec(cfg);
  liberty::testing::OracleConfig oracle;
  oracle.snapshot_every = 256;
  oracle.candidates = {
      liberty::testing::Candidate{SchedulerKind::Native},
      liberty::testing::Candidate{SchedulerKind::Native, /*opt_level=*/2},
  };
  const liberty::testing::OracleResult r =
      liberty::testing::run_oracle(spec, registry, oracle);
  EXPECT_TRUE(r.ok) << r.report();
}

#endif  // LIBERTY_NATIVE_CODEGEN

}  // namespace
