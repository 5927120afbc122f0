// Steady-state benchmark of the constructed simulators (NOTES.md has the
// workloads, the metric -> layer -> workload map and the noise diagnosis).
//
//   steady --workload pipelines|rack|rack-durable --seed N --seconds S
//          --trace 0|1 --work-dir DIR [--rev REV] [--compiler ID]
//
// One process, one simulation running at a time.  Each workload is built
// once per backend (static, compiled, native, all at -O2), warmed up, and
// then timed as many short windows of a fixed cycle count, interleaved
// across the three backends so that a slow host phase lands on all of
// them.  Throughput is the median window rate.  Set-up is the median of
// repeated spec -> ready-to-step constructions.  A dynamic-scheduler
// reference run of the warm-up prefix, cross-backend digests and
// seed-derived invariants form the correctness gate.
//
// --trace 1 runs the same workload with obs::CycleProfiler attached to
// every other window and reports the per-layer metrics instead; the spans
// of the benchmark's own calls plus a sample of kernel phase slices are
// written as Perfetto-loadable JSON under --work-dir.
//
// Output: a "record: {...}" line (host fingerprint, calibration, window
// statistics, digests, gate failures) and, last, the result object.
#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>

#include "harness.hpp"
#include "liberty/core/lss/elaborator.hpp"
#include "liberty/core/lss/lexer.hpp"
#include "liberty/core/lss/parser.hpp"
#include "liberty/core/mmio.hpp"
#include "liberty/core/netlist.hpp"
#include "liberty/core/registry.hpp"
#include "liberty/core/scheduler.hpp"
#include "liberty/core/simulator.hpp"
#include "liberty/gen/compiled_scheduler.hpp"
#include "liberty/gen/native.hpp"
#include "liberty/obs/profiler.hpp"
#include "liberty/obs/trace.hpp"
#include "liberty/opt/optimizer.hpp"
#include "liberty/pcl/pcl.hpp"
#include "liberty/resil/durable.hpp"
#include "liberty/resil/watchdog.hpp"
#include "liberty/scenario/rack.hpp"
#include "liberty/scenario/trace.hpp"
#include "liberty/scenario/trace_modules.hpp"

#ifndef STEADY_BUILD_TYPE
#define STEADY_BUILD_TYPE "unknown"
#endif
#ifndef STEADY_CHECKED_KERNEL_FLAG
#define STEADY_CHECKED_KERNEL_FLAG "unknown"
#endif
#ifndef STEADY_NATIVE_FLAG
#define STEADY_NATIVE_FLAG "unknown"
#endif

namespace steady {
namespace {

namespace core = liberty::core;
namespace fs = std::filesystem;
using core::Cycle;
using core::SchedulerKind;

// --- Configuration ----------------------------------------------------------

struct Backend {
  const char* name;
  SchedulerKind kind;
};
constexpr Backend kBackends[] = {{"static", SchedulerKind::Static},
                                 {"compiled", SchedulerKind::Compiled},
                                 {"native", SchedulerKind::Native}};
constexpr std::size_t kNumBackends = std::size(kBackends);
constexpr int kOptLevel = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string rev = "unknown";
  std::string compiler = "unknown";
};

/// Run length, fixed by (workload, --seconds) alone so that the simulated
/// work — and with it memory, checkpoint sizes and every digest — is the
/// same on every host.  The rates are nominal: about `seconds` of timed
/// windows on a 4-vCPU x86 KVM guest.
struct Plan {
  Cycle window = 0;            // cycles per window, identical per backend
  std::size_t warm = 0;        // untimed warm-up windows per backend
  std::size_t rounds = 0;      // timed windows per backend
  int setup_reps = 0;          // timed repetitions per backend and CPU
  int setup_batch = 0;         // constructions averaged in one repetition
  [[nodiscard]] Cycle warm_cycles() const { return window * warm; }
  [[nodiscard]] Cycle total() const { return window * (warm + rounds); }
};

Plan plan_for(const std::string& workload, int seconds) {
  const auto s = static_cast<std::size_t>(seconds);
  // Rounds are even so the traced run's profiled/unprofiled pairs cover
  // exactly the same cycles.
  const auto even = [](std::size_t n) { return n + n % 2; };
  if (workload == "pipelines") return Plan{2000, 4, even(11 * s), 4, 8};
  if (workload == "rack") return Plan{400, 10, even(13 * s), 2, 3};
  return Plan{256, 4, even(4 * s), 2, 4};  // rack-durable
}

core::ModuleRegistry& registry() {
  static core::ModuleRegistry reg = [] {
    core::ModuleRegistry r;
    liberty::scenario::register_rack_libraries(r);
    return r;
  }();
  return reg;
}

// --- Construction -----------------------------------------------------------

/// Seconds spent in each construction stage of one spec -> simulator
/// build.  Stages a workload does not have stay zero.
struct Stages {
  double tokenize = 0, parse = 0, elaborate = 0, netspec = 0, finalize = 0,
         optimize = 0, schedule_graph = 0, ctor = 0;
  /// The user-visible chain (excludes the extra tokenize and ScheduleGraph
  /// calls a split construction makes to time those layers on their own).
  [[nodiscard]] double chain() const {
    return parse + elaborate + netspec + finalize + optimize + ctor;
  }
  Stages& operator/=(double k) {
    for (double* f : {&tokenize, &parse, &elaborate, &netspec, &finalize,
                      &optimize, &schedule_graph, &ctor}) {
      *f /= k;
    }
    return *this;
  }
};

struct Instance {
  std::unique_ptr<core::Netlist> nl = std::make_unique<core::Netlist>();
  std::unique_ptr<core::Simulator> sim;
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  /// Spec -> finalized, optimized netlist (no simulator yet).  `split`
  /// additionally times tokenize, finalize and ScheduleGraph::build as
  /// separate calls.
  virtual void build_netlist(core::Netlist& nl, Stages& st, bool split,
                             SpanLog& log) = 0;
  /// Registry kind of every module, by instance name.
  [[nodiscard]] virtual const std::map<std::string, std::string>& kinds()
      const = 0;
  /// Seed-derived invariants of a finished run of `cycles` cycles.
  virtual void check_expected(const core::Netlist& nl, Cycle cycles,
                              const std::string& who, Gate& gate) const = 0;

  std::unique_ptr<Instance> construct(SchedulerKind kind, Stages& st,
                                      bool split, SpanLog& log) {
    auto inst = std::make_unique<Instance>();
    build_netlist(*inst->nl, st, split, log);
    if (split) {
      core::ScheduleGraph graph;
      st.schedule_graph +=
          log.time("ScheduleGraph::build", 0, [&] { graph.build(*inst->nl); });
    }
    st.ctor += log.time("Simulator", 0, [&] {
      inst->sim = std::make_unique<core::Simulator>(*inst->nl, kind);
    });
    return inst;
  }

 protected:
  static void optimize(core::Netlist& nl, Stages& st, SpanLog& log) {
    st.optimize += log.time("opt::optimize", 0, [&] {
      (void)liberty::opt::optimize(
          nl, liberty::opt::OptOptions::for_level(kOptLevel));
    });
  }
};

/// 64 independent Source -> Queue(4) -> Delay(3) -> Sink lanes, written as
/// LSS text.  Sources emit every second cycle, below the 3/4-per-cycle rate
/// a lane drains, so backlogs stay bounded.  The seed sets each lane's
/// first emission cycle (`start`, 0..15).
class Pipelines final : public Workload {
 public:
  static constexpr int kLanes = 64;
  static constexpr std::uint64_t kPeriod = 2;
  static constexpr std::uint64_t kDepth = 4;
  static constexpr std::uint64_t kLatency = 3;

  explicit Pipelines(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::ostringstream os;
    os << "// generated: " << kLanes << " lanes, seed " << seed << "\n";
    for (int i = 0; i < kLanes; ++i) {
      const std::uint64_t start = rng() % 16;
      starts_.push_back(start);
      const std::string l = std::to_string(i);
      os << "instance src_" << l << " : pcl.source { kind = \"counter\"; "
         << "period = " << kPeriod << "; start = " << start << "; };\n"
         << "instance q_" << l << " : pcl.queue { depth = " << kDepth
         << "; };\n"
         << "instance d_" << l << " : pcl.delay { latency = " << kLatency
         << "; };\n"
         << "instance sink_" << l << " : pcl.sink;\n"
         << "connect src_" << l << ".out -> q_" << l << ".in;\n"
         << "connect q_" << l << ".out -> d_" << l << ".in;\n"
         << "connect d_" << l << ".out -> sink_" << l << ".in;\n";
    }
    text_ = os.str();
    const core::lss::Spec spec = core::lss::parse(text_, "pipelines.lss");
    for (const auto& stmt : spec.top) {
      if (stmt->kind == core::lss::Stmt::Kind::Instance) {
        kinds_[stmt->instance.name.front().ident] =
            stmt->instance.template_path;
      }
    }
  }

  void build_netlist(core::Netlist& nl, Stages& st, bool split,
                     SpanLog& log) override {
    if (split) {
      st.tokenize += log.time("lss::tokenize", 0, [&] {
        (void)core::lss::tokenize(text_, "pipelines.lss");
      });
    }
    core::lss::Spec spec;
    st.parse += log.time("lss::parse", 0, [&] {
      spec = core::lss::parse(text_, "pipelines.lss");
    });
    st.elaborate += log.time("lss::Elaborator::elaborate", 0, [&] {
      core::lss::Elaborator(registry()).elaborate(spec, nl);
    });
    st.finalize += log.time("Netlist::finalize", 0, [&] { nl.finalize(); });
    optimize(nl, st, log);
  }

  [[nodiscard]] const std::map<std::string, std::string>& kinds()
      const override {
    return kinds_;
  }

  void check_expected(const core::Netlist& nl, Cycle cycles,
                      const std::string& who, Gate& gate) const override {
    // Per lane: the source generated exactly the arrivals its period and
    // start imply, its backlog stayed bounded, and everything it emitted
    // is either consumed or held in the lane's queue/delay.
    std::size_t bad = 0;
    std::string first;
    for (int i = 0; i < kLanes; ++i) {
      const std::string l = std::to_string(i);
      const auto* src =
          dynamic_cast<const liberty::pcl::Source*>(nl.find("src_" + l));
      const auto* q =
          dynamic_cast<const liberty::pcl::Queue*>(nl.find("q_" + l));
      const auto* d =
          dynamic_cast<const liberty::pcl::Delay*>(nl.find("d_" + l));
      const auto* k =
          dynamic_cast<const liberty::pcl::Sink*>(nl.find("sink_" + l));
      if (src == nullptr || q == nullptr || d == nullptr || k == nullptr) {
        ++bad;
        first = "lane " + l + " missing";
        continue;
      }
      const std::uint64_t start = starts_[static_cast<std::size_t>(i)];
      const std::uint64_t arrivals =
          cycles > start ? (cycles - start + kPeriod - 1) / kPeriod : 0;
      const std::uint64_t backlog =
          arrivals - std::min(arrivals, src->emitted());
      const std::uint64_t held = q->size() + d->in_flight();
      const bool ok = src->emitted() <= arrivals && backlog <= 1 &&
                      q->size() <= kDepth &&
                      k->consumed() + held == src->emitted() &&
                      k->consumed() + kDepth + kLatency + 2 >= arrivals;
      if (!ok && bad++ == 0) {
        first = "lane " + l + ": arrivals=" + std::to_string(arrivals) +
                " emitted=" + std::to_string(src->emitted()) +
                " consumed=" + std::to_string(k->consumed()) +
                " held=" + std::to_string(held);
      }
    }
    gate.check(bad == 0, who + ": seed invariants (" + std::to_string(bad) +
                             " bad lanes; " + first + ")");
  }

 private:
  std::string text_;
  std::vector<std::uint64_t> starts_;
  std::map<std::string, std::string> kinds_;
};

/// Instance-name prefix of rack node `n` ("n3").
std::string node_name(std::size_t n) {
  std::string name = "n";
  name += std::to_string(n);
  return name;
}

/// The busy rack: 4x4 mesh, 4 cores per node plus the OoO core, TSO,
/// 2 VCs.  The seed drives the synthetic request trace, which is sized so
/// injections span the whole run; worker loops outlast it, so cores never
/// halt.
class Rack final : public Workload {
 public:
  Rack(std::uint64_t seed, Cycle total) {
    cfg_.mesh_cols = 4;
    cfg_.mesh_rows = 4;
    cfg_.cores = 4;
    cfg_.with_ooo = true;
    cfg_.ordering = "tso";
    cfg_.vcs = 2;
    cfg_.seed = seed;
    cfg_.cycles = total;
    cfg_.worker_iters = static_cast<std::size_t>(total / 25) + 64;
    liberty::scenario::TraceConfig tc;
    tc.nodes = cfg_.nodes();
    tc.per_node = static_cast<std::size_t>(total / tc.mean_gap) + 1;
    tc.seed = seed;
    trace_ = liberty::scenario::synthetic_trace(tc);
    cfg_.trace = liberty::scenario::render_trace(trace_);
    for (const auto& m : liberty::scenario::rack_netspec(cfg_).modules) {
      kinds_[m.name] = m.type;
    }
  }

  void build_netlist(core::Netlist& nl, Stages& st, bool split,
                     SpanLog& log) override {
    st.netspec += log.time("scenario::rack_netspec+build", 0, [&] {
      const liberty::testing::NetSpec spec =
          liberty::scenario::rack_netspec(cfg_);
      if (split) {
        instantiate(spec, nl);
      } else {
        spec.build(nl, registry());  // includes Netlist::finalize
      }
    });
    if (split) {
      st.finalize += log.time("Netlist::finalize", 0, [&] { nl.finalize(); });
    }
    optimize(nl, st, log);
  }

  [[nodiscard]] const std::map<std::string, std::string>& kinds()
      const override {
    return kinds_;
  }

  struct Summary {
    std::uint64_t injected = 0;
    std::uint64_t completed = 0;
    double p99 = 0.0;
    double throughput_rpkc = 0.0;
    bool operator==(const Summary&) const = default;
  };

  [[nodiscard]] Summary summarize(const core::Netlist& nl,
                                  Cycle cycles) const {
    Summary s;
    std::vector<std::uint64_t> lat;
    for (std::size_t n = 0; n < cfg_.nodes(); ++n) {
      const std::string base = node_name(n);
      if (const auto* src = dynamic_cast<const liberty::scenario::TraceSource*>(
              nl.find(base + ".src"))) {
        s.injected += src->injected();
      }
      if (const auto* sink = dynamic_cast<const liberty::scenario::TraceSink*>(
              nl.find(base + ".sink"))) {
        for (const auto& r : sink->records()) {
          lat.push_back(r.done >= r.born ? r.done - r.born : 0);
        }
      }
    }
    std::sort(lat.begin(), lat.end());
    s.completed = lat.size();
    if (!lat.empty()) {
      // Nearest-rank p99, as rack_sim reports it.
      const auto rank = static_cast<std::size_t>(
          std::ceil(0.99 * static_cast<double>(lat.size())));
      s.p99 = static_cast<double>(lat[std::max<std::size_t>(rank, 1) - 1]);
    }
    s.throughput_rpkc = cycles == 0 ? 0.0
                                    : static_cast<double>(s.completed) *
                                          1000.0 / static_cast<double>(cycles);
    return s;
  }

  void check_expected(const core::Netlist& nl, Cycle cycles,
                      const std::string& who, Gate& gate) const override {
    // Every completed request is one of the seed's trace requests, reaped
    // at its destination, born no earlier than scheduled, done after
    // born, completed once; every injection was due before the run ended;
    // and the rack keeps up: nine in ten requests due more than kDrain
    // cycles before the end (several times the p99 latency) completed.
    constexpr Cycle kDrain = 4096;
    std::vector<char> seen(trace_.size(), 0);
    std::size_t bad = 0, due = 0, settled = 0;
    for (const auto& r : trace_) {
      due += r.cycle < cycles ? 1 : 0;
      settled += r.cycle + kDrain < cycles ? 1 : 0;
    }
    for (std::size_t n = 0; n < cfg_.nodes(); ++n) {
      const auto* sink = dynamic_cast<const liberty::scenario::TraceSink*>(
          nl.find(node_name(n) + ".sink"));
      if (sink == nullptr) {
        ++bad;
        continue;
      }
      for (const auto& r : sink->records()) {
        const bool known = r.id < trace_.size() && seen[r.id] == 0;
        if (!known) {
          ++bad;
          continue;
        }
        seen[r.id] = 1;
        const auto& t = trace_[r.id];
        if (t.src != r.src || t.dst != n || t.words != r.words ||
            r.born < t.cycle || r.done < r.born || r.done > cycles) {
          ++bad;
        }
      }
    }
    const Summary s = summarize(nl, cycles);
    gate.check(bad == 0 && s.injected <= due && s.completed <= s.injected &&
                   s.completed * 10 >= settled * 9,
               who + ": seed invariants (bad records " + std::to_string(bad) +
                   ", due " + std::to_string(due) + ", injected " +
                   std::to_string(s.injected) + ", completed " +
                   std::to_string(s.completed) + ")");
  }

 private:
  /// NetSpec::build without its final Netlist::finalize, so the traced run
  /// can time finalize on its own.
  static void instantiate(const liberty::testing::NetSpec& spec,
                          core::Netlist& nl) {
    std::vector<core::Module*> mods;
    for (const auto& d : spec.modules) {
      mods.push_back(&nl.add(registry().instantiate(d.type, d.name, d.params)));
    }
    for (const auto& e : spec.edges) {
      if (e.from_ep != liberty::testing::kAnyEndpoint) {
        nl.connect_at(mods[e.from]->out(e.from_port), e.from_ep,
                      mods[e.to]->in(e.to_port), e.to_ep);
      } else {
        nl.connect(mods[e.from]->out(e.from_port), mods[e.to]->in(e.to_port));
      }
    }
    for (const auto& m : spec.mmios) {
      dynamic_cast<core::MmioHost&>(*mods[m.host])
          .attach_mmio(m.base, m.size, dynamic_cast<core::MmioDevice&>(
                                           *mods[m.device]));
    }
  }

  liberty::scenario::RackConfig cfg_;
  std::vector<liberty::scenario::TraceRequest> trace_;
  std::map<std::string, std::string> kinds_;
};

// --- Steady-state lanes -----------------------------------------------------

/// One backend's running simulation.  run() advances it by a number of
/// cycles; observe() sets the probe the next windows run under.
class Lane {
 public:
  Lane() = default;
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;
  virtual ~Lane() = default;
  virtual void run(Cycle n) = 0;
  virtual void observe(core::KernelProbe* probe) = 0;
  [[nodiscard]] virtual core::Simulator& sim() = 0;
  [[nodiscard]] virtual core::Netlist& netlist() = 0;
  /// Digest of the per-cycle transfer hashes of the warm-up prefix.
  [[nodiscard]] virtual std::uint64_t warm_trace_digest() = 0;
  /// End of the run: lets a supervised lane finish its report.
  virtual void finish() {}
  /// Run the next windows on `cpu` (lanes that simulate on the calling
  /// thread follow the caller's pinning).
  virtual void pin(int cpu) { (void)cpu; }
};

/// A bare simulator, as lss_run and rack_sim run one.  The warm-up runs
/// under a TraceRecorder (for the digest gate); timed windows run with no
/// probe unless the traced run attaches its profiler.
class DirectLane final : public Lane {
 public:
  explicit DirectLane(std::unique_ptr<Instance> inst)
      : inst_(std::move(inst)), recorder_(*inst_->nl) {
    inst_->sim->set_probe(&recorder_);
  }
  void run(Cycle n) override { (void)inst_->sim->run(n); }
  void observe(core::KernelProbe* probe) override {
    if (recording_) {
      recorder_.set_next(probe);
    } else {
      inst_->sim->set_probe(probe);
    }
  }
  core::Simulator& sim() override { return *inst_->sim; }
  core::Netlist& netlist() override { return *inst_->nl; }
  std::uint64_t warm_trace_digest() override {
    return liberty::resil::fold_trace(recorder_.hashes());
  }
  /// Detach the recorder after the warm-up.
  void stop_recording() {
    recording_ = false;
    inst_->sim->set_probe(nullptr);
  }

 private:
  std::unique_ptr<Instance> inst_;
  liberty::resil::TraceRecorder recorder_;
  bool recording_ = true;
};

/// The rack under resil::DurableSupervisor, as rack_sim --checkpoint-dir
/// runs it: LCKP checkpoints every 64 cycles, keep-last-4 retention.  The
/// supervisor owns its cycle loop, so it runs on a worker thread that hands
/// control back at each window boundary (Handoff); only one thread ever
/// runs.  on_checkpoint is timed from this subclass to give the spill cost.
class DurableLane final : public Lane {
 public:
  static constexpr Cycle kCheckpointEvery = 64;
  static constexpr std::size_t kKeepLast = 4;

  DurableLane(std::unique_ptr<core::Netlist> nl, SchedulerKind kind,
              const std::string& dir, std::uint64_t seed, Cycle total,
              Cycle warm)
      : nl_(std::move(nl)), total_(total), warm_(warm) {
    liberty::resil::SupervisorConfig scfg;
    scfg.scheduler = kind;
    scfg.checkpoint_every = kCheckpointEvery;
    scfg.policy = liberty::resil::RecoveryPolicy::Abort;
    liberty::resil::DurableConfig dcfg;
    dcfg.dir = dir;
    dcfg.keep_last = kKeepLast;
    dcfg.aux_seed = seed;
    sup_ = std::make_unique<Supervisor>(*nl_, scfg, dcfg, *this);
    worker_ = std::thread([this] {
      handoff_.wait_turn();
      try {
        report_ = sup_->run(total_);
      } catch (const std::exception& e) {
        error_ = e.what();
      } catch (...) {
        error_ = "unknown exception";
      }
      done_ = true;
      handoff_.finish();
    });
  }
  ~DurableLane() override {
    if (!done_) {
      abort_ = true;
      handoff_.run_worker();
    }
    worker_.join();
  }

  void run(Cycle n) override {
    if (done_) return;
    target_ += n;
    handoff_.run_worker();
  }
  void observe(core::KernelProbe* probe) override { sup_->chain(probe); }
  core::Simulator& sim() override { return *sup_->simulator(); }
  core::Netlist& netlist() override { return *nl_; }
  std::uint64_t warm_trace_digest() override {
    std::vector<std::uint64_t> prefix = report_.trace_hashes;
    prefix.resize(std::min<std::size_t>(prefix.size(), warm_));
    return liberty::resil::fold_trace(prefix);
  }
  void finish() override {
    if (done_) return;
    target_ = total_;
    handoff_.run_worker();
  }
  void pin(int cpu) override { pin_thread(worker_.native_handle(), cpu); }

  [[nodiscard]] const liberty::resil::RecoveryReport& report() const {
    return report_;
  }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] const liberty::resil::DurableStats& stats() const {
    return sup_->stats();
  }
  [[nodiscard]] double spill_seconds() const { return spill_s_; }
  [[nodiscard]] std::uint64_t spills() const { return spills_; }
  void set_time_spills(bool on) { time_spills_ = on; }

 private:
  class Supervisor final : public liberty::resil::DurableSupervisor {
   public:
    Supervisor(core::Netlist& nl, liberty::resil::SupervisorConfig scfg,
               liberty::resil::DurableConfig dcfg, DurableLane& lane)
        : DurableSupervisor(nl, scfg, std::move(dcfg)), lane_(lane) {}
    void chain(core::KernelProbe* probe) { recorder_.set_next(probe); }

   protected:
    void on_checkpoint(liberty::resil::RecoveryReport& rep) override {
      if (!lane_.time_spills_) {
        DurableSupervisor::on_checkpoint(rep);
        return;
      }
      lane_.spill_s_ +=
          time_call([&] { DurableSupervisor::on_checkpoint(rep); });
      ++lane_.spills_;
    }
    void on_cycle_committed(Cycle now) override {
      DurableSupervisor::on_cycle_committed(now);
      if (now == lane_.target_) lane_.handoff_.yield_to_main();
      if (lane_.abort_) throw std::runtime_error("benchmark aborted the run");
    }

   private:
    DurableLane& lane_;
  };

  std::unique_ptr<core::Netlist> nl_;
  std::unique_ptr<Supervisor> sup_;
  Cycle total_;
  Cycle warm_;
  Cycle target_ = 0;
  Handoff handoff_;
  std::atomic<bool> done_{false};
  std::atomic<bool> abort_{false};
  liberty::resil::RecoveryReport report_;
  std::string error_;
  bool time_spills_ = false;
  double spill_s_ = 0.0;
  std::uint64_t spills_ = 0;
  std::thread worker_;  // last: it uses every member above
};

// --- Helpers ----------------------------------------------------------------

std::map<std::string, std::uint64_t> counters(core::Simulator& sim) {
  std::map<std::string, std::uint64_t> out;
  sim.scheduler().visit_counters(
      [&out](std::string_view name, std::uint64_t v) {
        out[std::string(name)] = v;
      });
  return out;
}

std::vector<std::uint64_t> transfer_counts(const core::Netlist& nl) {
  std::vector<std::uint64_t> out;
  for (const auto& c : nl.connections()) out.push_back(c->transfer_count());
  return out;
}

liberty::gen::NativeScheduler* native_of(core::Simulator& sim) {
  return dynamic_cast<liberty::gen::NativeScheduler*>(&sim.scheduler());
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct WindowStats {
  std::vector<double> kcps;        // untraced windows
  std::map<int, std::vector<double>> kcps_by_cpu;
  std::vector<double> traced_s;    // traced run: profiled window seconds
  std::vector<double> untraced_s;  // traced run: unprofiled window seconds
};

/// Cycles over seconds across every untraced window.
double mean_kcps(const WindowStats& w) {
  double secs = 0;
  for (const double k : w.kcps) secs += 1.0 / k;
  return secs > 0 ? static_cast<double>(w.kcps.size()) / secs : 0.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// --- The run ----------------------------------------------------------------

int run(const Options& opt) {
  // A fixed mmap threshold: glibc otherwise raises it after the first large
  // free, and whether a later multi-megabyte construction lands in the heap
  // or in fresh mappings then depends on allocation order, which moved the
  // peak resident set of identical runs by ~10%.
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const auto origin = Clock::now();
  std::ostringstream kernel_trace;
  std::optional<liberty::obs::ChromeTraceWriter> chrome;
  if (opt.trace) chrome.emplace(kernel_trace);
  SpanLog log(origin);
  log.set_recording(opt.trace);
  Gate gate;
  MetricSet e2e, layers;
  std::ostringstream record;  // extra JSON fields for the record line

  liberty::gen::ensure_registered();
  if (!liberty::gen::native_available()) {
    std::fprintf(stderr,
                 "steady: this build has no native backend "
                 "(configure with -DLIBERTY_NATIVE_CODEGEN=ON); refusing to "
                 "report compiled numbers as kcps.native\n");
    return 3;
  }

  const Plan plan = plan_for(opt.workload, opt.seconds);
  const bool durable = opt.workload == "rack-durable";
  std::unique_ptr<Workload> wl;
  Rack* rack = nullptr;
  if (opt.workload == "pipelines") {
    wl = std::make_unique<Pipelines>(opt.seed);
  } else {
    auto r = std::make_unique<Rack>(opt.seed, plan.total());
    rack = r.get();
    wl = std::move(r);
  }

  const fs::path work(opt.work_dir);
  fs::create_directories(work);
  const std::string tag = opt.workload + "-seed" + std::to_string(opt.seed) +
                          "-pid" + std::to_string(::getpid());
  // Native artifacts: untraced runs share a persistent cache (users pay
  // the host compile once per netlist); the traced run starts from an
  // empty one so it can time the cold compile.
  const fs::path cache = opt.trace ? work / ("native-cold-" + tag)
                                   : work / "native-cache";
  liberty::gen::native_options().cache_dir = cache.string();
  liberty::gen::native_options().backend_opt = 2;

  // Placement: which CPU a process lands on moves its throughput by up to
  // a third on a shared host, and a process stays put for seconds.  Every
  // round of windows (and every set-up repetition) is pinned to the next
  // allowed CPU in turn, so each run samples all of them.
  const std::vector<int> cpus = allowed_cpus();
  const auto cpu_for = [&](std::size_t r) {
    return cpus.empty() ? -1 : cpus[r % cpus.size()];
  };
  const auto pin_main = [&](std::size_t r) {
    if (!cpus.empty()) pin_thread(::pthread_self(), cpu_for(r));
  };
  const double calib_before = calibrate_on(cpus);

  // --- Set-up -------------------------------------------------------------
  // A first native construction fills the artifact cache (untimed in the
  // untraced run; in the traced run it is the cold measurement).
  const std::uint64_t timeouts0 = liberty::gen::native_compile_timeouts();
  double native_cold_s = 0.0;
  {
    Stages st;
    auto inst = wl->construct(SchedulerKind::Native, st, false, log);
    native_cold_s = st.chain();
  }
  std::vector<std::vector<Stages>> reps(kNumBackends);
  std::size_t native_ok = 0, native_built = 0;
  // Set-up repetitions: half before the steady-state lanes exist, half
  // after they are gone (so no live simulator shares the native artifact's
  // dlopen handle), which spreads them over the run like the windows.  One
  // repetition averages `setup_batch` back-to-back constructions.  On a
  // shared host, single constructions flip between a fast mode and a ~1.7x
  // slower mode every few tens to hundreds of milliseconds.  A median of
  // such samples jumps between the modes as their mix shifts from run to
  // run.
  const std::size_t setup_reps =
      static_cast<std::size_t>(plan.setup_reps) *
      std::max<std::size_t>(cpus.size(), 1);
  const auto run_setup_reps = [&](std::size_t from, std::size_t to) {
    for (std::size_t r = from; r < to; ++r) {
      pin_main(r);
      for (std::size_t i = 0; i < kNumBackends; ++i) {
        const std::size_t b = (i + r) % kNumBackends;
        Stages st;
        for (int k = 0; k < plan.setup_batch; ++k) {
          auto inst = wl->construct(kBackends[b].kind, st, opt.trace, log);
          if (kBackends[b].kind != SchedulerKind::Native) continue;
          ++native_built;
          auto* ns = native_of(*inst->sim);
          const bool whole = ns != nullptr && ns->native_active() &&
                             ns->native_module_count() ==
                                 inst->nl->module_count();
          if (ns != nullptr && (whole || opt.workload != "pipelines")) {
            ++native_ok;
          }
        }
        reps[b].push_back(st /= plan.setup_batch);
      }
    }
  };
  run_setup_reps(0, setup_reps / 2);
  const double rss_after_setup = rss_mb();
  const auto stage_median = [&](std::size_t b, double Stages::*f) {
    std::vector<double> v;
    for (const Stages& s : reps[b]) v.push_back(s.*f);
    return median(v);
  };
  // End-to-end set-up is the mean over every timed construction: single
  // samples are bimodal (see above), and over the same runs the median of
  // the repetitions spread about 20% from run to run where the mean spread
  // about 12%.
  const auto chain_mean = [&](std::size_t b) {
    double sum = 0.0;
    for (const Stages& s : reps[b]) sum += s.chain();
    return reps[b].empty() ? 0.0 : sum / static_cast<double>(reps[b].size());
  };

  // --- Steady state -------------------------------------------------------
  const Cycle total = plan.total();
  std::vector<std::unique_ptr<Lane>> lanes;
  std::vector<DurableLane*> dlanes;
  std::vector<fs::path> ckpt_dirs;
  for (std::size_t b = 0; b < kNumBackends; ++b) {
    Stages st;
    if (durable) {
      auto nl = std::make_unique<core::Netlist>();
      wl->build_netlist(*nl, st, false, log);
      const fs::path dir = work / ("ckpt-" + tag + "-" + kBackends[b].name);
      fs::remove_all(dir);
      ckpt_dirs.push_back(dir);
      auto lane = std::make_unique<DurableLane>(
          std::move(nl), kBackends[b].kind, dir.string(), opt.seed, total,
          plan.warm_cycles());
      lane->set_time_spills(opt.trace);
      dlanes.push_back(lane.get());
      lanes.push_back(std::move(lane));
    } else {
      lanes.push_back(std::make_unique<DirectLane>(
          wl->construct(kBackends[b].kind, st, false, log)));
    }
  }

  const double rss_after_build = rss_mb();
  // Reference: the dynamic scheduler over the warm-up prefix.
  std::uint64_t ref_trace = 0, ref_state = 0;
  {
    Stages st;
    DirectLane ref(wl->construct(SchedulerKind::Dynamic, st, false, log));
    ref.run(plan.warm_cycles());
    ref_trace = ref.warm_trace_digest();
    ref_state = ref.sim().snapshot().digest();
  }

  // Warm-up.  The traced run samples kernel phase slices into the Chrome
  // trace during the last warm-up window of each backend.
  liberty::obs::CycleProfiler sampler;
  if (chrome) sampler.set_sink(&*chrome);
  for (std::size_t w = 0; w < plan.warm; ++w) {
    const bool sample = chrome.has_value() && w + 1 == plan.warm;
    pin_main(w);
    for (std::size_t b = 0; b < kNumBackends; ++b) {
      if (!cpus.empty()) lanes[b]->pin(cpu_for(w));
      if (sample) lanes[b]->observe(&sampler);
      log.time(std::string("warm-up window ") + kBackends[b].name,
               static_cast<int>(b) + 1, [&] { lanes[b]->run(plan.window); });
      if (sample) lanes[b]->observe(nullptr);
    }
  }
  for (std::size_t b = 0; b < kNumBackends; ++b) {
    gate.check(lanes[b]->sim().snapshot().digest() == ref_state,
               std::string(kBackends[b].name) +
                   ": state digest after warm-up equals the dynamic "
                   "reference");
    if (auto* d = dynamic_cast<DirectLane*>(lanes[b].get())) {
      gate.check(d->warm_trace_digest() == ref_trace,
                 std::string(kBackends[b].name) +
                     ": warm-up transfer digest equals the dynamic reference");
      d->stop_recording();
    }
  }

  std::vector<std::map<std::string, std::uint64_t>> c0(kNumBackends),
      c1(kNumBackends);
  for (std::size_t b = 0; b < kNumBackends; ++b) {
    c0[b] = counters(lanes[b]->sim());
  }
  std::vector<liberty::obs::CycleProfiler> prof(kNumBackends);
  std::vector<WindowStats> ws(kNumBackends);
  std::vector<double> calib_during;  // one short pass per round
  const double rss_start = rss_mb();
  const auto timed0 = Clock::now();
  // The traced run alternates a profiled and an unprofiled window per
  // backend (in alternating order), so it covers the same cycles in half
  // the rounds and yields the tracing overhead from one process.
  const std::size_t rounds = opt.trace ? plan.rounds / 2 : plan.rounds;
  for (std::size_t r = 0; r < rounds; ++r) {
    pin_main(r);
    calib_during.push_back(calibrate_ns_per_iter(1u << 16));
    for (std::size_t i = 0; i < kNumBackends; ++i) {
      const std::size_t b = (i + r) % kNumBackends;
      if (!cpus.empty()) lanes[b]->pin(cpu_for(r));
      const std::string name =
          std::string("window ") + kBackends[b].name;
      if (!opt.trace) {
        const double s = log.time(name, static_cast<int>(b) + 1,
                                  [&] { lanes[b]->run(plan.window); });
        ws[b].kcps.push_back(static_cast<double>(plan.window) / 1e3 / s);
        ws[b].kcps_by_cpu[cpu_for(r)].push_back(ws[b].kcps.back());
        continue;
      }
      for (int k = 0; k < 2; ++k) {
        const bool profiled = (k == 0) == (r % 2 == 0);
        lanes[b]->observe(profiled ? &prof[b] : nullptr);
        const double s =
            log.time(name + (profiled ? " (profiled)" : ""),
                     static_cast<int>(b) + 1,
                     [&] { lanes[b]->run(plan.window); });
        (profiled ? ws[b].traced_s : ws[b].untraced_s).push_back(s);
        if (!profiled) {
          ws[b].kcps.push_back(static_cast<double>(plan.window) / 1e3 / s);
          ws[b].kcps_by_cpu[cpu_for(r)].push_back(ws[b].kcps.back());
        }
      }
      lanes[b]->observe(nullptr);
    }
  }
  const double timed_s = seconds_since(timed0);
  const double rss_end = rss_mb();
  const Cycle timed_cycles = plan.window * rounds * (opt.trace ? 2 : 1);
  const Cycle ran = plan.warm_cycles() + timed_cycles;  // == total
  gate.attempt(rounds * kNumBackends * (opt.trace ? 2 : 1));  // windows

  // resil.snapshot_s: Simulator::snapshot on the running rack, timed from
  // outside between windows (the supervisor takes the same snapshot at
  // each checkpoint).
  double snapshot_s = 0.0;
  if (durable && opt.trace) {
    std::vector<double> v;
    for (int i = 0; i < 7; ++i) {
      v.push_back(log.time("Simulator::snapshot", 1, [&] {
        (void)lanes[0]->sim().snapshot();
      }));
    }
    snapshot_s = median(v);
  }
  for (std::size_t b = 0; b < kNumBackends; ++b) {
    c1[b] = counters(lanes[b]->sim());
    lanes[b]->finish();
  }

  // --- Correctness gate ---------------------------------------------------
  std::vector<std::uint64_t> final_state(kNumBackends);
  for (std::size_t b = 0; b < kNumBackends; ++b) {
    const std::string who = kBackends[b].name;
    if (durable) {
      DurableLane& d = *dlanes[b];
      gate.check(d.error().empty() && d.report().completed &&
                     d.report().cycles == total,
                 who + ": supervised run completed " +
                     std::to_string(d.report().cycles) + "/" +
                     std::to_string(total) + " cycles " + d.error() +
                     d.report().error);
      final_state[b] = d.report().state_digest;
      gate.check(d.warm_trace_digest() == ref_trace,
                 who + ": warm-up transfer digest equals the dynamic "
                       "reference");
      const std::uint64_t wf = d.stats().write_failures;
      if (wf != 0) {
        gate.fail(wf, who + ": " + std::to_string(wf) +
                          " checkpoint write failures");
      }
      gate.attempt(d.stats().checkpoints_written);
      gate.check(d.stats().checkpoints_written ==
                     total / DurableLane::kCheckpointEvery + 1,
                 who + ": checkpoints written " +
                     std::to_string(d.stats().checkpoints_written));
    } else {
      gate.check(lanes[b]->sim().now() == ran,
                 who + ": simulated " + std::to_string(ran) + " cycles");
      final_state[b] = lanes[b]->sim().snapshot().digest();
    }
    wl->check_expected(lanes[b]->netlist(), ran, who, gate);
  }
  for (std::size_t b = 1; b < kNumBackends; ++b) {
    const std::string who = kBackends[b].name;
    gate.check(final_state[b] == final_state[0],
               who + ": final state digest equals static");
    gate.check(transfer_counts(lanes[b]->netlist()) ==
                   transfer_counts(lanes[0]->netlist()),
               who + ": per-connection transfer counts equal static");
    if (rack != nullptr) {
      gate.check(rack->summarize(lanes[b]->netlist(), ran) ==
                     rack->summarize(lanes[0]->netlist(), ran),
                 who + ": rack latency p99 / throughput equal static");
    }
  }
  if (auto* ns = native_of(lanes[2]->sim()); opt.workload == "pipelines") {
    const auto& c = c1[2];
    gate.check(ns != nullptr && ns->native_active() &&
                   c.count("gen.native_retirements") != 0 &&
                   c.at("gen.native_retirements") == 0,
               "native: pipelines stayed on the native image for the "
               "whole run");
  }
  const std::uint64_t timeouts =
      liberty::gen::native_compile_timeouts() - timeouts0;
  if (timeouts != 0) {
    gate.fail(timeouts, std::to_string(timeouts) + " native compile timeouts");
  } else {
    gate.attempt();
  }

  // --- Metrics ------------------------------------------------------------
  if (!opt.trace) {
    for (std::size_t b = 0; b < kNumBackends; ++b) {
      e2e.put(std::string("kcps.") + kBackends[b].name, mean_kcps(ws[b]),
              "kcycle/s");
    }
  } else {
    for (std::size_t b = 0; b < kNumBackends; ++b) {
      const double kc = static_cast<double>(prof[b].cycles()) / 1e3;
      for (std::size_t p = 0; p < core::kSchedPhaseCount; ++p) {
        const auto phase = static_cast<core::SchedPhase>(p);
        layers.put("kernel.phase_s." + std::string(core::phase_name(phase)) +
                       "." + kBackends[b].name,
                   kc > 0 ? prof[b].phases()[p].seconds / kc : 0.0, "s/kcycle");
      }
    }
    const auto per_cycle = [&](std::size_t b, const char* name) {
      const std::string key(name);
      if (c1[b].count(key) == 0 || c0[b].count(key) == 0) return 0.0;
      return static_cast<double>(c1[b].at(key) - c0[b].at(key)) /
             static_cast<double>(timed_cycles);
    };
    layers.put("kernel.react_calls_per_cycle.static",
               per_cycle(0, "react_calls"), "1/cycle");
    layers.put("kernel.react_calls_per_cycle.compiled",
               per_cycle(1, "react_calls"), "1/cycle");
    layers.put("kernel.resolutions_per_cycle", per_cycle(0, "resolutions"),
               "1/cycle");
    layers.put("kernel.transfers_per_cycle",
               per_cycle(0, "transfers_committed"), "1/cycle");
    layers.put("kernel.fixedpoint_passes_per_cycle",
               per_cycle(0, "fixedpoint_passes"), "1/cycle");
    for (const char* k : {"opt.pre_resolved", "opt.fused_chains",
                          "opt.elided_modules", "opt.gated_sccs",
                          "opt.retired_sccs"}) {
      layers.put(k,
                 c1[0].count(k) != 0 ? static_cast<double>(c1[0].at(k)) : 0.0,
                 "count");
    }
    const auto counter = [&](std::size_t b, const char* k) {
      return c1[b].count(k) != 0 ? static_cast<double>(c1[b].at(k)) : 0.0;
    };
    const double devirt = counter(1, "gen.devirtualized_ops");
    const double virt = counter(1, "gen.virtual_fallback_ops");
    layers.put("gen.devirtualized_share",
               devirt + virt > 0 ? devirt / (devirt + virt) : 0.0, "ratio");
    layers.put("gen.native.module_share",
               counter(2, "gen.native_modules") /
                   static_cast<double>(lanes[2]->netlist().module_count()),
               "ratio");

    // Per-kind react self time (static backend), seconds per kcycle.
    std::map<std::string, double> by_kind;
    for (const auto& [name, kind] : wl->kinds()) by_kind[kind] = 0.0;
    const auto& secs = prof[0].module_seconds();
    const auto& mods = lanes[0]->netlist().modules();
    for (std::size_t id = 0; id < mods.size() && id < secs.size(); ++id) {
      const auto it = wl->kinds().find(mods[id]->name());
      by_kind[it != wl->kinds().end() ? it->second : "other"] += secs[id];
    }
    const double kc0 = static_cast<double>(prof[0].cycles()) / 1e3;
    for (const char* kind :
         {"pcl.source", "pcl.queue", "pcl.delay", "pcl.sink",
          "pcl.memory_array", "upl.simple_cpu", "upl.ooo_core",
          "mpl.ordering", "mpl.dir_cache", "mpl.directory", "ccl.bus",
          "ccl.router", "ccl.link", "nil.nic_assist", "nil.fabric_adapter",
          "scenario.trace_source", "scenario.trace_sink"}) {
      layers.put(std::string("module_s.") + kind,
                 kc0 > 0 ? by_kind[kind] / kc0 : 0.0,
                 "s/kcycle");
    }

    double ckpts = 0, bytes = 0, spill = 0, spills = 0;
    for (DurableLane* d : dlanes) {
      ckpts += static_cast<double>(d->stats().checkpoints_written);
      bytes += static_cast<double>(d->stats().bytes_written);
      spill += d->spill_seconds();
      spills += static_cast<double>(d->spills());
    }
    const double nd = dlanes.empty() ? 1.0 : static_cast<double>(dlanes.size());
    layers.put("resil.checkpoints_written", ckpts / nd, "count");
    layers.put("resil.checkpoint_bytes", ckpts > 0 ? bytes / ckpts : 0.0,
               "bytes");
    layers.put("resil.snapshot_s", snapshot_s, "s");
    layers.put("resil.spill_s_per_checkpoint",
               spills > 0 ? spill / spills : 0.0, "s");

    if (rack != nullptr) {
      const auto s = rack->summarize(lanes[0]->netlist(), ran);
      layers.put("scenario.requests_completed",
                 static_cast<double>(s.completed), "count");
      layers.put("scenario.latency_p99_cycles", s.p99, "cycles");
    } else {
      layers.put("scenario.requests_completed", 0.0, "count");
      layers.put("scenario.latency_p99_cycles", 0.0, "cycles");
    }

    double traced = 0, untraced = 0;
    for (const auto& w : ws) {
      traced += median(w.traced_s);
      untraced += median(w.untraced_s);
    }
    layers.put("obs.trace_overhead", untraced > 0 ? traced / untraced : 0.0,
               "ratio");
  }
  lanes.clear();
  dlanes.clear();
  run_setup_reps(setup_reps / 2, setup_reps);
  gate.check(native_ok == native_built,
             "native constructions on the native scheduler (and whole on "
             "pipelines): " +
                 std::to_string(native_ok) + "/" +
                 std::to_string(native_built));
  if (!opt.trace) {
    e2e.put("setup_s", chain_mean(0), "s");
    e2e.put("setup_s.compiled", chain_mean(1), "s");
    e2e.put("setup_s.native", chain_mean(2), "s");
    e2e.put("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    const auto all_median = [&](double Stages::*f) {
      std::vector<double> v;
      for (const auto& per : reps) {
        for (const Stages& s : per) v.push_back(s.*f);
      }
      return median(v);
    };
    // lss::parse tokenizes on its own; lss.parse_s is its whole call.
    layers.put("lss.tokenize_s", all_median(&Stages::tokenize), "s");
    layers.put("lss.parse_s", all_median(&Stages::parse), "s");
    layers.put("lss.elaborate_s", all_median(&Stages::elaborate), "s");
    layers.put("scenario.netspec_s", all_median(&Stages::netspec), "s");
    layers.put("kernel.finalize_s", all_median(&Stages::finalize), "s");
    layers.put("kernel.schedule_graph_s", all_median(&Stages::schedule_graph),
               "s");
    layers.put("opt.optimize_s", all_median(&Stages::optimize), "s");
    const double ctor_static = stage_median(0, &Stages::ctor);
    layers.put("gen.lower_s",
               std::max(0.0, stage_median(1, &Stages::ctor) - ctor_static),
               "s");
    layers.put("gen.native.ctor_warm_s", stage_median(2, &Stages::ctor), "s");
    layers.put("gen.native.compile_s",
               std::max(0.0, native_cold_s - chain_mean(2)), "s");
  }
  const double calib_after = calibrate_on(cpus);

  // Steadiness and host attribution, in both modes' records; also layer
  // metrics of the traced run.
  MetricSet steadiness;
  for (std::size_t b = 0; b < kNumBackends; ++b) {
    steadiness.put(std::string("kernel.window_drift.") + kBackends[b].name,
                   drift_ratio(ws[b].kcps, 5), "ratio");
  }
  steadiness.put("rss.start_mb", rss_start, "MB");
  steadiness.put("rss.end_mb", rss_end, "MB");
  steadiness.put("host.calib_ns_per_iter", median(calib_during), "ns");
  if (opt.trace) {
    for (const auto& [name, vu] : steadiness.items()) {
      layers.put(name, vu.first, vu.second);
    }
  }

  // --- Artifacts and output -----------------------------------------------
  for (const fs::path& d : ckpt_dirs) fs::remove_all(d);
  if (opt.trace) {
    fs::remove_all(cache);
    chrome->finish();
    std::string doc = kernel_trace.str();
    const std::size_t close = doc.rfind(']');
    std::vector<std::string> threads{"set-up"};
    for (const auto& b : kBackends) threads.push_back(b.name);
    doc.insert(close, ",\n" + log.events(threads) + "\n");
    const fs::path dir = work / "traces";
    fs::create_directories(dir);
    const std::string stem = opt.workload + "-seed" + std::to_string(opt.seed);
    std::ofstream(dir / (stem + ".trace.json")) << doc;
    std::ofstream(dir / (stem + ".layers.json")) << layers.json() << "\n";
  }

  record << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
         << ", \"seconds\": " << opt.seconds << ", \"trace\": " << opt.trace
         << ", \"host\": {\"cores\": " << std::thread::hardware_concurrency()
         << ", \"cpu\": \"" << json_escape(cpu_model())
         << "\", \"compiler\": \"" << json_escape(opt.compiler)
         << "\", \"bench_compiler\": \"" << json_escape(__VERSION__)
         << "\", \"build_type\": \"" << STEADY_BUILD_TYPE
         << "\", \"checked_kernel_flag\": \"" << STEADY_CHECKED_KERNEL_FLAG
         << "\", \"checked_kernel\": "
         << (core::checked_kernel_enabled() ? "true" : "false")
         << ", \"native_flag\": \"" << STEADY_NATIVE_FLAG
         << "\", \"native\": "
         << (liberty::gen::native_available() ? "true" : "false")
         << ", \"rev\": \"" << json_escape(opt.rev) << "\"}"
         << ", \"calib_ns_per_iter\": {\"before\": "
         << json_number(calib_before)
         << ", \"during\": " << json_number(median(calib_during))
         << ", \"after\": " << json_number(calib_after) << "}"
         << ", \"plan\": {\"window_cycles\": " << plan.window
         << ", \"warm_windows\": " << plan.warm << ", \"rounds\": " << rounds
         << ", \"cycles\": " << ran << ", \"setup_reps\": " << setup_reps
         << ", \"setup_batch\": " << plan.setup_batch
         << "}, \"timed_s\": " << json_number(timed_s)
         << ", \"rss_mb\": {\"after_setup\": " << json_number(rss_after_setup)
         << ", \"after_build\": " << json_number(rss_after_build) << "}"
         << ", \"native_cold_setup_s\": " << json_number(native_cold_s)
         << ", \"native_compiles\": "
         << liberty::gen::native_compile_invocations()
         << ", \"windows\": {";
  for (std::size_t b = 0; b < kNumBackends; ++b) {
    const auto& v = ws[b].kcps;
    record << (b ? ", " : "") << "\"" << kBackends[b].name
           << "\": {\"n\": " << v.size()
           << ", \"q1\": " << json_number(quantile(v, 0.25))
           << ", \"median\": " << json_number(median(v))
           << ", \"q3\": " << json_number(quantile(v, 0.75))
           << ", \"min\": " << json_number(quantile(v, 0.0))
           << ", \"max\": " << json_number(quantile(v, 1.0))
           << ", \"mean\": " << json_number(mean_kcps(ws[b]))
           << ", \"median_by_cpu\": {";
    bool first = true;
    for (const auto& [cpu, kc] : ws[b].kcps_by_cpu) {
      record << (first ? "" : ", ") << "\"" << cpu
             << "\": " << json_number(median(kc));
      first = false;
    }
    record << "}}";
  }
  record << "}, \"setup_s\": {";
  for (std::size_t b = 0; b < kNumBackends; ++b) {
    record << (b ? "], " : "") << "\"" << kBackends[b].name << "\": [";
    for (std::size_t i = 0; i < reps[b].size(); ++i) {
      record << (i ? ", " : "") << json_number(reps[b][i].chain());
    }
  }
  record << "]}, \"steadiness\": " << steadiness.json()
         << ", \"digests\": {\"reference_trace\": \"" << hex(ref_trace)
         << "\", \"reference_state\": \"" << hex(ref_state)
         << "\", \"final_state\": \"" << hex(final_state[0]) << "\"}"
         << ", \"gate_failures\": [";
  for (std::size_t i = 0; i < gate.failures().size(); ++i) {
    record << (i ? ", " : "") << "\"" << json_escape(gate.failures()[i])
           << "\"";
  }
  record << "]}";
  std::printf("record: %s\n", record.str().c_str());

  const MetricSet& out = opt.trace ? layers : e2e;
  bool finite = true;
  for (const auto& [name, vu] : out.items()) finite &= std::isfinite(vu.first);
  gate.check(finite, "every metric is a finite number");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              gate.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(gate.attempted()),
              static_cast<unsigned long long>(gate.failed()),
              out.json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace steady

int main(int argc, char** argv) {
  steady::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "steady: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = next();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atoi(next().c_str());
    } else if (a == "--trace") {
      opt.trace = next() == "1";
    } else if (a == "--work-dir") {
      opt.work_dir = next();
    } else if (a == "--rev") {
      opt.rev = next();
    } else if (a == "--compiler") {
      opt.compiler = next();
    } else {
      std::fprintf(stderr, "steady: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if ((opt.workload != "pipelines" && opt.workload != "rack" &&
       opt.workload != "rack-durable") ||
      opt.seconds < 1 || opt.work_dir.empty()) {
    std::fprintf(stderr,
                 "usage: steady --workload pipelines|rack|rack-durable "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR "
                 "[--rev REV] [--compiler ID]\n");
    return 2;
  }
  try {
    return steady::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "steady: error: %s\n", e.what());
    return 1;
  }
}
