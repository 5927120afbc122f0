#include "liberty/testing/oracle.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>

#include "liberty/core/state.hpp"
#include "liberty/gen/compiled_scheduler.hpp"
#include "liberty/obs/profiler.hpp"
#include "liberty/opt/optimizer.hpp"
#include "liberty/resil/injector.hpp"

namespace liberty::testing {

namespace {

using liberty::core::Connection;
using liberty::core::Cycle;
using liberty::core::KernelSnapshot;
using liberty::core::Netlist;
using liberty::core::SchedulerKind;
using liberty::core::Simulator;
using liberty::core::fnv1a_mix;
using liberty::core::kFnv1aInit;

std::uint64_t mix_bytes(std::uint64_t h, const std::string& s) {
  for (const unsigned char ch : s) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// One scheduler's coarse pass over the full cycle budget.
struct RunRecord {
  std::vector<KernelSnapshot> snaps;  // snapshot i taken at snap_cycles[i]
  std::vector<Cycle> snap_cycles;
  std::vector<std::uint64_t> window_hashes;  // transfers between snapshots
  std::string stats;
};

RunRecord run_full(const NetSpec& spec,
                   const liberty::core::ModuleRegistry& registry,
                   SchedulerKind kind, Cycle every,
                   bool profile, int opt_level,
                   const liberty::resil::FaultPlan* plan) {
  Netlist netlist;
  spec.build(netlist, registry);
  if (opt_level > 0) {
    liberty::opt::optimize(netlist,
                           liberty::opt::OptOptions::for_level(opt_level));
  }
  // The injector must outlive the simulator (the scheduler's destructor
  // clears the per-connection hooks).
  std::unique_ptr<liberty::resil::FaultInjector> injector;
  if (plan != nullptr) {
    injector = std::make_unique<liberty::resil::FaultInjector>(*plan);
  }
  Simulator sim(netlist, kind);
  if (injector != nullptr) injector->install(sim);
  // With config.profile the probe rides along purely to prove it cannot
  // perturb the comparison; its aggregates are discarded.
  liberty::obs::CycleProfiler prof;
  if (profile) sim.set_probe(&prof);

  RunRecord rec;
  std::uint64_t hash = kFnv1aInit;
  sim.observe_transfers([&hash](const Connection& c, Cycle cycle) {
    hash = fnv1a_mix(hash, c.id());
    hash = fnv1a_mix(hash, cycle);
    hash = mix_bytes(hash, c.data().to_string());
  });

  rec.snaps.push_back(sim.snapshot());
  rec.snap_cycles.push_back(0);
  for (Cycle c = 0; c < spec.cycles; ++c) {
    sim.step();
    if ((c + 1) % every == 0 || c + 1 == spec.cycles) {
      rec.window_hashes.push_back(hash);
      hash = kFnv1aInit;
      rec.snaps.push_back(sim.snapshot());
      rec.snap_cycles.push_back(c + 1);
    }
  }
  std::ostringstream oss;
  netlist.dump_stats(oss);
  rec.stats = oss.str();
  return rec;
}

std::string kind_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::Dynamic: return "dynamic";
    case SchedulerKind::Static: return "static";
    case SchedulerKind::Compiled: return "compiled";
    case SchedulerKind::Native: return "native";
  }
  return "?";
}

/// Phase 2: restore both schedulers to the last agreeing snapshot and
/// replay in lockstep to the exact divergent cycle.
Divergence bisect_window(const NetSpec& spec,
                         const liberty::core::ModuleRegistry& registry,
                         const Candidate& cand, const RunRecord& ref,
                         const RunRecord& other, std::size_t window,
                         const liberty::resil::FaultPlan* plan) {
  Divergence d;
  d.candidate = cand;

  Netlist nl_ref;
  Netlist nl_cand;
  spec.build(nl_ref, registry);
  spec.build(nl_cand, registry);
  if (cand.opt_level > 0) {
    liberty::opt::optimize(
        nl_cand, liberty::opt::OptOptions::for_level(cand.opt_level));
  }
  // Lockstep replay must suffer the same faults as the coarse runs did —
  // fault mappings are pure functions of (connection, cycle), so restoring
  // to a snapshot and replaying reproduces them exactly.
  std::unique_ptr<liberty::resil::FaultInjector> inj_ref;
  std::unique_ptr<liberty::resil::FaultInjector> inj_cand;
  if (plan != nullptr) {
    inj_ref = std::make_unique<liberty::resil::FaultInjector>(*plan);
    inj_cand = std::make_unique<liberty::resil::FaultInjector>(*plan);
  }
  Simulator sim_ref(nl_ref, SchedulerKind::Dynamic);
  Simulator sim_cand(nl_cand, cand.kind);
  if (inj_ref != nullptr) {
    inj_ref->install(sim_ref);
    inj_cand->install(sim_cand);
  }
  // Each side restores its own snapshot (their digests agree at `window`,
  // so the states are equal in content) — this is the restore/replay path
  // the snapshot API exists for.
  sim_ref.restore(ref.snaps[window]);
  sim_cand.restore(other.snaps[window]);

  std::vector<std::string> xfer_ref;
  std::vector<std::string> xfer_cand;
  const auto recorder = [](std::vector<std::string>& into) {
    return [&into](const Connection& c, Cycle cycle) {
      into.push_back("@" + std::to_string(cycle) + " conn#" +
                     std::to_string(c.id()) + " " + c.describe() + " = " +
                     c.data().to_string());
    };
  };
  sim_ref.observe_transfers(recorder(xfer_ref));
  sim_cand.observe_transfers(recorder(xfer_cand));

  const Cycle stop = ref.snap_cycles[window + 1];
  while (sim_ref.now() < stop) {
    const Cycle cycle = sim_ref.now();
    xfer_ref.clear();
    xfer_cand.clear();
    sim_ref.step();
    sim_cand.step();

    std::vector<std::string> differing;
    const auto& mods_ref = nl_ref.modules();
    const auto& mods_cand = nl_cand.modules();
    for (std::size_t i = 0; i < mods_ref.size(); ++i) {
      if (mods_ref[i]->state_digest() != mods_cand[i]->state_digest()) {
        differing.push_back(mods_ref[i]->name());
      }
    }
    if (xfer_ref != xfer_cand || !differing.empty()) {
      d.first_divergent_cycle = cycle;
      d.modules = std::move(differing);
      std::ostringstream oss;
      oss << "schedulers diverge at cycle " << cycle << " (dynamic vs "
          << cand.describe() << ")\n";
      if (!d.modules.empty()) {
        oss << "  modules with differing state:";
        for (const auto& m : d.modules) oss << " " << m;
        oss << "\n";
      }
      const std::size_t n =
          std::max(xfer_ref.size(), xfer_cand.size());
      for (std::size_t i = 0; i < n; ++i) {
        const std::string a = i < xfer_ref.size() ? xfer_ref[i] : "(none)";
        const std::string b = i < xfer_cand.size() ? xfer_cand[i] : "(none)";
        if (a != b) {
          oss << "  first transfer mismatch:\n    dynamic:   " << a
              << "\n    candidate: " << b << "\n";
          break;
        }
      }
      d.detail = oss.str();
      return d;
    }
  }

  // The window disagreed in aggregate but lockstep saw no per-cycle
  // difference (e.g. a hash collision) — report the window boundary.
  d.first_divergent_cycle = stop;
  d.detail = "divergence detected in window ending at cycle " +
             std::to_string(stop) + " but lockstep replay found no "
             "per-cycle difference (hash collision?)";
  return d;
}

}  // namespace

std::string Candidate::describe() const {
  std::string s = kind_name(kind);
  if (opt_level > 0) s += "-O" + std::to_string(opt_level);
  return s;
}

std::string OracleResult::report() const {
  if (ok) return "all schedulers agree";
  std::string out;
  for (const Divergence& d : divergences) {
    out += d.detail;
    if (!out.empty() && out.back() != '\n') out += '\n';
  }
  return out;
}

OracleResult run_oracle(const NetSpec& spec,
                        const liberty::core::ModuleRegistry& registry,
                        const OracleConfig& config) {
  // The compiled backend registers through a seam (core cannot link gen);
  // doing it here covers every oracle user unconditionally.
  liberty::gen::ensure_registered();

  std::vector<Candidate> candidates = config.candidates;
  if (candidates.empty()) {
    candidates = {Candidate{SchedulerKind::Static},
                  Candidate{SchedulerKind::Compiled},
                  Candidate{SchedulerKind::Compiled, /*opt_level=*/2}};
#if defined(LIBERTY_NATIVE_CODEGEN)
    // The native backend rides the default matrix only when built in;
    // whatever the emitter declines runs on its bytecode fallback, so
    // every netlist is still a valid native candidate.
    candidates.push_back(Candidate{SchedulerKind::Native});
    candidates.push_back(Candidate{SchedulerKind::Native, /*opt_level=*/2});
#endif
  }

  const Cycle every =
      config.snapshot_every == 0 ? 16 : config.snapshot_every;
  const RunRecord ref = run_full(spec, registry, SchedulerKind::Dynamic,
                                 every, config.profile, /*opt_level=*/0,
                                 config.fault_plan);

  OracleResult result;
  for (const Candidate& cand : candidates) {
    const RunRecord rec = run_full(spec, registry, cand.kind, every,
                                   config.profile, cand.opt_level,
                                   config.fault_plan);

    // First disagreeing window: window w spans snapshots w -> w+1.
    std::size_t bad_window = rec.window_hashes.size();
    for (std::size_t w = 0; w < rec.window_hashes.size(); ++w) {
      if (rec.window_hashes[w] != ref.window_hashes[w] ||
          rec.snaps[w + 1].digest() != ref.snaps[w + 1].digest()) {
        bad_window = w;
        break;
      }
    }

    if (bad_window == rec.window_hashes.size()) {
      if (rec.stats == ref.stats) continue;  // candidate agrees
      Divergence d;
      d.candidate = cand;
      d.detail = "stats dump differs between dynamic and " +
                 cand.describe() +
                 " although transfers and state agree:\n--- dynamic\n" +
                 ref.stats + "--- candidate\n" + rec.stats;
      result.ok = false;
      result.divergences.push_back(std::move(d));
      continue;
    }

    result.ok = false;
    if (config.bisect) {
      result.divergences.push_back(bisect_window(spec, registry, cand, ref,
                                                 rec, bad_window,
                                                 config.fault_plan));
    } else {
      Divergence d;
      d.candidate = cand;
      d.first_divergent_cycle = rec.snap_cycles[bad_window + 1];
      d.detail = "dynamic and " + cand.describe() +
                 " diverge in window ending at cycle " +
                 std::to_string(rec.snap_cycles[bad_window + 1]) +
                 " (bisection disabled)";
      result.divergences.push_back(std::move(d));
    }
  }
  return result;
}

}  // namespace liberty::testing
