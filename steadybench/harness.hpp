// Measurement plumbing for the steady-state benchmark (see NOTES.md):
// clocks and medians, in-memory spans, resident-set readings, the host
// fingerprint and CPU calibration loop, a strict single-owner handoff for
// the supervised workload, and the result printer.  Nothing here knows
// about a particular workload.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

namespace steady {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename Fn>
double time_call(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median of the first `k` and of the last `k` samples, as a ratio
/// (first / last).  1.0 means the rate did not drift across the run.
inline double drift_ratio(const std::vector<double>& samples, std::size_t k) {
  k = std::min(k, samples.size() / 2);
  if (k == 0) return 1.0;
  const double first =
      median(std::vector<double>(samples.begin(), samples.begin() + k));
  const double last =
      median(std::vector<double>(samples.end() - k, samples.end()));
  return last > 0.0 ? first / last : 0.0;
}

/// A /proc/self/status memory field (VmRSS, VmHWM, ...) in MB.
inline double status_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::stod(line.substr(key.size())) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

/// Current and peak resident set of this process, in MB.
inline double rss_mb() { return status_mb("VmRSS"); }
inline double peak_rss_mb() { return status_mb("VmHWM"); }

/// The CPUs this process may run on, in increasing order.
inline std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Pin one thread to one CPU (best effort: a host that refuses leaves the
/// thread where the scheduler put it).
inline void pin_thread(pthread_t thread, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)::pthread_setaffinity_np(thread, sizeof set, &set);
}

/// Fixed integer work (a multiply-xorshift chain) on the calling thread:
/// nanoseconds per iteration.  It does not depend on the simulator, so a
/// shift between two sets of runs that also shows here belongs to the
/// host, not the program.
inline double calibrate_ns_per_iter(std::uint64_t iters = 1u << 22) {
  static volatile std::uint64_t sink = 0;
  std::uint64_t x = 0x9e3779b97f4a7c15ull + sink;
  const double s = time_call([&] {
    for (std::uint64_t i = 0; i < iters; ++i) {
      x ^= x >> 31;
      x *= 0xbf58476d1ce4e5b9ull;
      x ^= x << 7;
    }
  });
  sink = x;
  return s * 1e9 / static_cast<double>(iters);
}

/// Median calibration over one pass on each CPU in `cpus`.
inline double calibrate_on(const std::vector<int>& cpus) {
  std::vector<double> ns;
  for (const int cpu : cpus) {
    pin_thread(::pthread_self(), cpu);
    ns.push_back(calibrate_ns_per_iter());
  }
  if (ns.empty()) ns.push_back(calibrate_ns_per_iter());
  return median(ns);
}

inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One benchmark-owned span: a timed public call, kept in memory and
/// written out at the end of the traced run.
struct Span {
  std::string name;
  int tid = 0;  // 0 = set-up, 1 + backend index = that backend's windows
  double ts_us = 0.0;
  double dur_us = 0.0;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  /// Time `fn`; when recording, also keep a span named `name`.
  template <typename Fn>
  double time(const std::string& name, int tid, Fn&& fn) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    if (recording_) {
      spans_.push_back(Span{
          name, tid,
          std::chrono::duration<double, std::micro>(t0 - origin_).count(),
          std::chrono::duration<double, std::micro>(t1 - t0).count()});
    }
    return std::chrono::duration<double>(t1 - t0).count();
  }

  void set_recording(bool on) noexcept { recording_ = on; }

  /// Chrome trace-event rendering of the spans (pid 3), comma-separated
  /// and ready to splice into a traceEvents array.
  [[nodiscard]] std::string events(
      const std::vector<std::string>& thread_names) const {
    std::ostringstream os;
    os << "{\"ph\":\"M\",\"pid\":3,\"name\":\"process_name\","
          "\"args\":{\"name\":\"benchmark\"}}";
    for (std::size_t t = 0; t < thread_names.size(); ++t) {
      os << ",\n{\"ph\":\"M\",\"pid\":3,\"tid\":" << t
         << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
         << json_escape(thread_names[t]) << "\"}}";
    }
    char buf[96];
    for (const Span& s : spans_) {
      os << ",\n{\"ph\":\"X\",\"pid\":3,\"tid\":" << s.tid << ",\"name\":\""
         << json_escape(s.name) << "\",\"cat\":\"bench\"";
      std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f}", s.ts_us,
                    s.dur_us);
      os << buf;
    }
    return os.str();
  }

 private:
  Clock::time_point origin_;
  bool recording_ = false;
  std::vector<Span> spans_;
};

/// Strict two-party handoff: exactly one of {main thread, worker} runs at
/// any moment.  The supervised workload owns its own cycle loop, so each
/// backend's supervisor runs on a worker thread that gives control back at
/// every window boundary — the process still executes one simulation at a
/// time, as the interleaved direct-simulator workloads do.
class Handoff {
 public:
  /// Main thread: let the worker run until it hands back.
  void run_worker() {
    std::unique_lock<std::mutex> lk(mu_);
    worker_turn_ = true;
    cv_.notify_all();
    cv_.wait(lk, [this] { return !worker_turn_; });
  }
  /// Worker thread: hand control back and wait for the next turn.
  void yield_to_main() {
    std::unique_lock<std::mutex> lk(mu_);
    worker_turn_ = false;
    cv_.notify_all();
    cv_.wait(lk, [this] { return worker_turn_; });
  }
  /// Worker thread: wait for the first turn.
  void wait_turn() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return worker_turn_; });
  }
  /// Worker thread: final hand-back; the worker does not run again.
  void finish() {
    std::lock_guard<std::mutex> lk(mu_);
    worker_turn_ = false;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool worker_turn_ = false;
};

/// Named metric values with units, printed in insertion order.
class MetricSet {
 public:
  void put(const std::string& name, double value, const std::string& unit) {
    if (index_.count(name) == 0) {
      index_[name] = items_.size();
      items_.push_back({name, {value, unit}});
    } else {
      items_[index_[name]].second = {value, unit};
    }
  }
  [[nodiscard]] const std::vector<
      std::pair<std::string, std::pair<double, std::string>>>&
  items() const noexcept {
    return items_;
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i != 0) out += ", ";
      out += "\"" + items_[i].first + "\": {\"value\": " +
             json_number(items_[i].second.first) + ", \"unit\": \"" +
             items_[i].second.second + "\"}";
    }
    return out + "}";
  }

 private:
  std::map<std::string, std::size_t> index_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// Pass/fail bookkeeping for the correctness gate: every check and every
/// timed window is one attempted operation.
class Gate {
 public:
  void attempt(std::uint64_t n = 1) noexcept { attempted_ += n; }
  /// One attempted check; a false `ok` is a failed operation and keeps
  /// `what` for the record.
  bool check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      failures_.push_back(what);
      std::fprintf(stderr, "gate: FAILED: %s\n", what.c_str());
    }
    return ok;
  }
  void fail(std::uint64_t n, const std::string& what) {
    attempted_ += n;
    failed_ += n;
    failures_.push_back(what);
    std::fprintf(stderr, "gate: FAILED: %s\n", what.c_str());
  }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

}  // namespace steady
