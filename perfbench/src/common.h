// Shared plumbing of the perfbench binary: clocks, the seeded input stream,
// order statistics, the span recorder, and the per-run result (operation
// accounting plus named metrics).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/runtime.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

/// SplitMix64, the repository's house generator: every seeded input of the
/// benchmark (ECO edit stream, serve arrival schedule and job mix) is drawn
/// from one of these, derived from --seed and a per-stream tag.
class SplitMix64 {
 public:
  SplitMix64(std::uint64_t seed, std::uint64_t stream)
      : state_(seed ^ (0x9e3779b97f4a7c15ull * (stream + 1))) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Linear-interpolated quantile (p in [0, 1]) of an unsorted sample; 0 when
/// the sample is empty.
double quantile(std::vector<double> values, double p);
inline double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// In-memory span recorder for traced runs. A span has a name, start and end
/// (ms since the recorder was created), the index of its parent span (-1 for
/// none) and the id of the operation it belongs to. Spans are written out
/// once, when the run ends. A disabled recorder records nothing.
class Trace {
 public:
  struct Span {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;
    long op = -1;
    double duration_ms() const { return end_ms - start_ms; }
  };

  explicit Trace(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  bool enabled() const { return enabled_; }

  /// Opens a span; returns its index (-1 when disabled). Thread-safe.
  int open(const std::string& name, long op = -1, int parent = -1);
  void close(int index);

  /// RAII span around one call.
  class Scope {
   public:
    Scope(Trace& trace, const std::string& name, long op = -1, int parent = -1)
        : trace_(trace), index_(trace.open(name, op, parent)) {}
    ~Scope() { trace_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int index() const { return index_; }

   private:
    Trace& trace_;
    int index_;
  };

  /// Durations (ms) of every closed span with this name.
  std::vector<double> durations(const std::string& name) const;
  /// Self time of span `index`: its duration minus the part covered by its
  /// direct children.
  double self_ms(int index) const;
  std::size_t size() const;
  /// Writes one JSON object per span per line.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;  ///< guards spans_
  std::vector<Span> spans_;
};

/// One metric as printed: value and unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything a run reports: operation accounting and named metrics.
class Result {
 public:
  /// Counts one operation; `ok` false counts it failed and logs `why`
  /// (the first few failures only) to stderr.
  void op(bool ok, const std::string& why = {});
  /// A check that is not an operation (set-up sanity, reference mismatch):
  /// marks the run incorrect without counting an operation.
  void check(bool ok, const std::string& why);

  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const { return metrics_.count(name) != 0; }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

  long attempted() const { return attempted_; }
  long failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && checks_ok_; }

 private:
  long attempted_ = 0;
  long failed_ = 0;
  bool checks_ok_ = true;
  int logged_ = 0;
  std::map<std::string, Metric> metrics_;
};

/// Run parameters shared by every workload.
struct Context {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< size workloads repeat their pass until this elapses
  bool smoke = false;     ///< tiny sizes for the benchmark's own tests
  std::string work_dir;   ///< scratch space inside the checkout
  Trace* trace = nullptr;
  Result* result = nullptr;
  bool traced() const { return trace->enabled(); }
};

/// Runs `fn` with the library at `threads` threads (0: the library default,
/// every hardware thread) and restores the previous count afterwards.
template <class Fn>
void with_threads(int threads, Fn&& fn) {
  const int previous = statsize::runtime::threads();
  statsize::runtime::set_threads(threads > 0 ? threads : statsize::runtime::hardware_threads());
  fn();
  statsize::runtime::set_threads(previous);
}

/// Runs `fn` at least `reps` times, and until 0.5 s have been spent, and
/// returns the median wall time in seconds; the workloads use it for setup_s
/// and keep the state the last repetition built.
template <class Fn>
double median_setup_seconds(const Context& ctx, int reps, Fn&& fn) {
  constexpr double kMinTotalMs = 500.0;
  constexpr int kMaxReps = 5000;
  std::vector<double> walls;
  double total_ms = 0.0;
  while (walls.empty() ||
         (!ctx.smoke && walls.size() < static_cast<std::size_t>(kMaxReps) &&
          (walls.size() < static_cast<std::size_t>(reps) || total_ms < kMinTotalMs))) {
    const Clock::time_point t0 = Clock::now();
    fn();
    walls.push_back(ms_since(t0));
    total_ms += walls.back();
  }
  return median(walls) / 1000.0;
}

}  // namespace perfbench
