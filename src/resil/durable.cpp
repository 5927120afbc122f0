#include "liberty/resil/durable.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <utility>

#include "liberty/obs/metrics.hpp"
#include "liberty/resil/injector.hpp"
#include "liberty/support/error.hpp"

namespace liberty::resil {

namespace fs = std::filesystem;

namespace {

constexpr const char* kPrefix = "ckpt-";
constexpr const char* kSuffix = ".lck";

[[nodiscard]] std::string checkpoint_filename(core::Cycle cycle) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%s%012llu%s", kPrefix,
                static_cast<unsigned long long>(cycle), kSuffix);
  return buf;
}

/// Cycle number encoded in a checkpoint filename; false when the name
/// doesn't match the ckpt-NNNN.lck pattern.
[[nodiscard]] bool filename_cycle(const std::string& name, core::Cycle& out) {
  const std::size_t plen = std::strlen(kPrefix);
  const std::size_t slen = std::strlen(kSuffix);
  if (name.size() <= plen + slen || name.rfind(kPrefix, 0) != 0 ||
      name.compare(name.size() - slen, slen, kSuffix) != 0) {
    return false;
  }
  const std::string digits = name.substr(plen, name.size() - plen - slen);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  out = static_cast<core::Cycle>(std::strtoull(digits.c_str(), nullptr, 10));
  return true;
}

[[nodiscard]] bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

/// Checkpoint files in `dir` as (filename cycle, path), newest first.
/// Empty for a missing or unreadable directory.
[[nodiscard]] std::vector<std::pair<core::Cycle, std::string>>
list_checkpoint_files(const std::string& dir) {
  std::vector<std::pair<core::Cycle, std::string>> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (ec) break;
    core::Cycle cycle = 0;
    if (!entry.is_regular_file(ec) ||
        !filename_cycle(entry.path().filename().string(), cycle)) {
      continue;  // .tmp leftovers, foreign files
    }
    files.emplace_back(cycle, entry.path().string());
  }
  std::sort(files.begin(), files.end(),
            [](const auto& a, const auto& b) { return a > b; });
  return files;
}

/// Read, parse and topology-check one checkpoint file (topology_hash 0
/// skips the check).  Fills `cand` — valid, or the reason it is not — and,
/// when valid, `img`.
bool examine_checkpoint(const std::string& path, core::Cycle name_cycle,
                        std::uint64_t topology_hash, CheckpointCandidate& cand,
                        core::CheckpointImage& img) {
  cand.path = path;
  cand.cycle = name_cycle;
  std::string bytes;
  if (!read_file(path, bytes)) {
    cand.reason = "unreadable";
    return false;
  }
  cand.bytes = bytes.size();
  std::string why;
  if (!core::parse_checkpoint(bytes, img, why)) {
    cand.reason = why;
  } else if (topology_hash != 0 && img.topology_hash != topology_hash) {
    cand.reason = "topology mismatch (checkpoint belongs to a different "
                  "netlist shape)";
  } else {
    cand.valid = true;
    cand.cycle = img.snapshot.cycle;  // trust the file over the name
  }
  return cand.valid;
}

/// Write bytes durably: tmp file, fsync, atomic rename, directory fsync.
/// Returns false with `err` set on any syscall failure.
[[nodiscard]] bool write_atomic(const std::string& dir,
                                const std::string& final_name,
                                const std::string& bytes, std::string& err) {
  const std::string tmp = dir + "/." + final_name + ".tmp";
  const std::string final_path = dir + "/" + final_name;
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    err = "open " + tmp + ": " + std::strerror(errno);
    return false;
  }
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      err = "write " + tmp + ": " + std::strerror(errno);
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    err = "fsync " + tmp + ": " + std::strerror(errno);
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), final_path.c_str()) != 0) {
    err = "rename to " + final_path + ": " + std::strerror(errno);
    ::unlink(tmp.c_str());
    return false;
  }
  // Persist the rename itself; without this a crash can forget the file.
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

/// Seeded truncation point for an injected torn write: always a strict
/// prefix, deterministic in (seed, cycle).
[[nodiscard]] std::size_t torn_length(std::uint64_t seed, core::Cycle cycle,
                                      std::size_t full) {
  std::uint64_t h = core::kFnv1aInit;
  h = core::fnv1a_mix(h, seed);
  h = core::fnv1a_mix(h, static_cast<std::uint64_t>(cycle) + 1);
  return full == 0 ? 0 : static_cast<std::size_t>(h % full);
}

}  // namespace

std::vector<CheckpointCandidate> scan_checkpoints(
    const std::string& dir, std::uint64_t topology_hash) {
  std::vector<CheckpointCandidate> list;
  for (const auto& [cycle, path] : list_checkpoint_files(dir)) {
    CheckpointCandidate cand;
    core::CheckpointImage img;
    (void)examine_checkpoint(path, cycle, topology_hash, cand, img);
    list.push_back(std::move(cand));
  }
  std::sort(list.begin(), list.end(),
            [](const CheckpointCandidate& a, const CheckpointCandidate& b) {
              if (a.cycle != b.cycle) return a.cycle > b.cycle;
              return a.path > b.path;
            });
  return list;
}

std::string describe_candidates(const std::string& dir,
                                const std::vector<CheckpointCandidate>& list) {
  std::string s = "checkpoint dir '" + dir + "': ";
  if (list.empty()) {
    std::error_code ec;
    s += fs::exists(dir, ec) ? "no checkpoint files found"
                             : "directory does not exist";
    return s;
  }
  s += std::to_string(list.size()) + " candidate(s):";
  for (const CheckpointCandidate& c : list) {
    s += "\n  " + fs::path(c.path).filename().string() + " (cycle " +
         std::to_string(c.cycle) + ", " + std::to_string(c.bytes) + " bytes): ";
    s += c.valid ? "ok" : "REJECTED: " + c.reason;
  }
  return s;
}

DurableSupervisor::DurableSupervisor(core::Netlist& netlist,
                                     SupervisorConfig cfg,
                                     DurableConfig durable,
                                     FaultInjector* injector,
                                     Watchdog* watchdog)
    : Supervisor(netlist, cfg, injector, watchdog),
      durable_(std::move(durable)) {
  if (durable_.dir.empty()) {
    throw liberty::Error("DurableConfig.dir must name a run directory");
  }
  std::error_code ec;
  fs::create_directories(durable_.dir, ec);
  if (ec) {
    diagnostics_.push_back("checkpoint dir '" + durable_.dir +
                           "' cannot be created: " + ec.message() +
                           " — running without durability");
  }
}

void DurableSupervisor::note(RecoveryReport* rep, std::string msg) {
  diagnostics_.push_back(msg);
  if (rep != nullptr) rep->events.push_back(std::move(msg));
}

void DurableSupervisor::on_run_start(RecoveryReport& rep) {
  if (!durable_.resume) return;
  const std::uint64_t topo = netlist_.topology_hash();
  // Newest first, each file read and parsed once: the first one that
  // parses, fits this netlist and restores wins.
  std::vector<CheckpointCandidate> rejected;
  for (const auto& [cycle, path] : list_checkpoint_files(durable_.dir)) {
    CheckpointCandidate cand;
    core::CheckpointImage img;
    if (examine_checkpoint(path, cycle, topo, cand, img)) {
      try {
        sim_->restore(img.snapshot);
      } catch (const liberty::Error& e) {
        cand.valid = false;
        cand.reason = std::string("restore failed: ") + e.what();
      }
    }
    if (cand.valid) {
      recorder_.preload(std::move(img.trace_hashes));
      resumed_cycle_ = img.snapshot.cycle;
      last_spilled_cycle_ = static_cast<std::int64_t>(img.snapshot.cycle);
      ++stats_.resumes;
      note(&rep, "resumed from " + fs::path(path).filename().string() +
                     " at cycle " + std::to_string(resumed_cycle_));
      return;
    }
    ++stats_.corrupt_skipped;
    note(&rep, "resume: skipped " + fs::path(path).filename().string() +
                   ": " + cand.reason);
    rejected.push_back(std::move(cand));
  }
  // Nothing usable — start fresh, and show exactly what was found and why
  // it was rejected (the shared lss_run/rack_sim message path).
  note(&rep, describe_candidates(durable_.dir, rejected));
  note(&rep, "resume: no valid checkpoint; starting fresh from cycle 0");
}

void DurableSupervisor::on_checkpoint(RecoveryReport& rep) {
  if (static_cast<std::int64_t>(checkpoint_.cycle) == last_spilled_cycle_) {
    return;  // the resume point (or a rollback target) is already on disk
  }
  spill(&rep);
}

void DurableSupervisor::spill(RecoveryReport* rep) {
  const core::Cycle cycle = checkpoint_.cycle;
  if (injector_ != nullptr &&
      injector_->env_fault_fires(FaultClass::CheckpointEnospc, cycle)) {
    ++stats_.write_failures;
    if (stats_.write_failures == 1) {
      note(rep, "checkpoint at cycle " + std::to_string(cycle) +
                    " suppressed: injected ENOSPC (run continues undurable)");
    }
    return;
  }
  // Encode checkpoint_ and the recorder's trace-hash prefix [0, cycle) in
  // place, without copying either.  The recorder holds every committed
  // cycle; were it ever short, a resumed recorder fills the missing tail
  // with empty-cycle hashes, as a padded prefix would.
  const std::span<const std::uint64_t> hashes(recorder_.hashes());
  std::string bytes;
  try {
    bytes = core::serialize_checkpoint(
        netlist_.topology_hash(), durable_.aux_seed, checkpoint_,
        hashes.first(std::min<std::size_t>(hashes.size(), cycle)));
  } catch (const liberty::Error& e) {
    ++stats_.write_failures;
    if (!encode_failed_) {
      encode_failed_ = true;
      note(rep, std::string("checkpoint serialization failed: ") + e.what() +
                    " (run continues undurable)");
    }
    return;
  }
  if (injector_ != nullptr &&
      injector_->env_fault_fires(FaultClass::TornCheckpoint, cycle)) {
    bytes.resize(torn_length(injector_->plan().seed, cycle, bytes.size()));
    note(rep, "checkpoint at cycle " + std::to_string(cycle) +
                  ": injected torn write (" + std::to_string(bytes.size()) +
                  " bytes)");
  }
  std::string err;
  if (!write_atomic(durable_.dir, checkpoint_filename(cycle), bytes, err)) {
    ++stats_.write_failures;
    if (stats_.write_failures == 1) {
      note(rep, "checkpoint write failed: " + err +
                    " (run continues undurable)");
    }
    return;
  }
  ++stats_.checkpoints_written;
  stats_.bytes_written += bytes.size();
  last_spilled_cycle_ = static_cast<std::int64_t>(cycle);
  prune();
}

void DurableSupervisor::prune() {
  if (durable_.keep_last == 0) return;
  // Retention is by filename cycle, validity-agnostic: a torn newest file
  // must not evict the older good one past the window, so keep_last counts
  // files, and the scanner still sees every survivor.
  const auto files = list_checkpoint_files(durable_.dir);
  std::error_code ec;
  for (std::size_t i = durable_.keep_last; i < files.size(); ++i) {
    fs::remove(files[i].second, ec);
  }
}

void DurableSupervisor::on_cycle_committed(core::Cycle now) {
  if (durable_.kill_at != 0 && now >= durable_.kill_at) {
    // The crash harness's guillotine: die exactly as SIGKILL from outside
    // would — no destructors, no flushes, mid-run.
    ::raise(SIGKILL);
  }
}

void DurableSupervisor::export_metrics(obs::MetricsRegistry& reg) const {
  reg.add_counter("resil.supervisor.checkpoints_written",
                  stats_.checkpoints_written);
  reg.add_counter("resil.supervisor.checkpoint_bytes", stats_.bytes_written);
  reg.add_counter("resil.supervisor.resumes", stats_.resumes);
  reg.add_counter("resil.supervisor.corrupt_skipped", stats_.corrupt_skipped);
  reg.add_counter("resil.supervisor.write_failures", stats_.write_failures);
}

}  // namespace liberty::resil
