// Shared helpers for the reproduction benches.
//
// Every table/figure binary prints (a) the workload statistics, (b) the rows
// in the same layout as the paper, and (c) the qualitative criteria the
// reproduction is judged on (EXPERIMENTS.md records paper-vs-measured).

#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/sizer.h"
#include "netlist/circuit.h"
#include "ssta/ssta.h"
#include "util/json.h"

namespace statsize::bench {

/// Circuit mean-delay (or mu + k sigma) range across the two uniform sizings
/// [all gates at limit, all gates at 1].
struct MetricRange {
  double lo = 0.0;  ///< fastest (all gates at max speed)
  double hi = 0.0;  ///< slowest (all gates at 1)

  double at(double frac) const { return lo + frac * (hi - lo); }
};

inline MetricRange metric_range(const netlist::Circuit& c, const core::SizingSpec& spec,
                                double sigma_weight) {
  const ssta::DelayCalculator calc(c, spec.sigma_model);
  std::vector<double> s(static_cast<std::size_t>(c.num_nodes()), spec.max_speed);
  MetricRange r;
  r.lo = ssta::run_ssta(calc, s).circuit_delay.quantile_offset(sigma_weight);
  std::fill(s.begin(), s.end(), 1.0);
  r.hi = ssta::run_ssta(calc, s).circuit_delay.quantile_offset(sigma_weight);
  return r;
}

/// Method selection: STATSIZE_METHOD=full|reduced|auto (default auto: the
/// paper's full-space formulation up to `full_space_limit` gates, the
/// reduced-space adjoint mode beyond — full-space on thousand-gate circuits
/// reproduces the paper's hours-scale LANCELOT times, see Table 1 CPU column).
inline core::Method select_method(const netlist::Circuit& c, int full_space_limit = 300) {
  const char* env = std::getenv("STATSIZE_METHOD");
  const std::string mode = env != nullptr ? env : "auto";
  if (mode == "full") return core::Method::kFullSpace;
  if (mode == "reduced") return core::Method::kReducedSpace;
  return c.num_gates() <= full_space_limit ? core::Method::kFullSpace
                                           : core::Method::kReducedSpace;
}

inline const char* method_name(core::Method m) {
  return m == core::Method::kFullSpace ? "full-space" : "reduced";
}

inline void print_workload(const char* name, const netlist::Circuit& c) {
  const netlist::CircuitStats s = netlist::compute_stats(c);
  std::printf("# workload %-8s: %4d cells, %d PIs, %d POs, depth %d, avg fanin %.2f\n", name,
              s.num_gates, s.num_inputs, s.num_outputs, s.depth, s.avg_fanin);
}

/// Machine-readable bench results: a flat list of rows, each a flat object
/// of named fields, written as
///
///   { "bench": "<name>", "rows": [ { "gates": 1600, "threads": 4,
///     "ssta_wall_ms": 1.9, ... }, ... ] }
///
/// so scripts can diff runs without scraping the human tables. Fields keep
/// insertion order. The default output path is BENCH_<name>.json in the
/// current directory (where CI collects BENCH_* artifacts).
class JsonArtifact {
 public:
  explicit JsonArtifact(std::string bench) : bench_(std::move(bench)) {}

  class Row {
   public:
    Row& field(std::string key, double v) {
      fields_.push_back({std::move(key), Kind::kNumber, v, {}});
      return *this;
    }
    Row& field(std::string key, int v) {
      fields_.push_back({std::move(key), Kind::kInt, static_cast<double>(v), {}});
      return *this;
    }
    Row& field(std::string key, std::string v) {
      fields_.push_back({std::move(key), Kind::kString, 0.0, std::move(v)});
      return *this;
    }

   private:
    friend class JsonArtifact;
    enum class Kind { kNumber, kInt, kString };
    struct Field {
      std::string key;
      Kind kind;
      double num;
      std::string str;
    };
    std::vector<Field> fields_;
  };

  Row& add_row() {
    rows_.emplace_back();
    return rows_.back();
  }

  /// Writes the artifact (default BENCH_<name>.json) and prints the path.
  /// Returns false (after a diagnostic) if the file cannot be opened — benches
  /// report but keep their exit status, so a read-only CWD doesn't fail runs.
  bool write(const std::string& path = {}) const {
    const std::string out_path = path.empty() ? "BENCH_" + bench_ + ".json" : path;
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write %s\n", out_path.c_str());
      return false;
    }
    util::JsonWriter w(out);
    w.begin_object();
    w.key("bench").value(bench_);
    w.key("rows").begin_array();
    for (const Row& row : rows_) {
      w.begin_object();
      for (const Row::Field& f : row.fields_) {
        w.key(f.key);
        switch (f.kind) {
          case Row::Kind::kNumber: w.value(f.num); break;
          case Row::Kind::kInt: w.value(static_cast<long>(f.num)); break;
          case Row::Kind::kString: w.value(f.str); break;
        }
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
    out << "\n";
    std::printf("wrote %s\n", out_path.c_str());
    return true;
  }

 private:
  std::string bench_;
  std::vector<Row> rows_;
};

/// "41 m 13.5 s"-style CPU formatting, as in the paper's Table 1.
inline std::string format_cpu(double seconds) {
  char buf[64];
  if (seconds >= 60.0) {
    const int minutes = static_cast<int>(seconds / 60.0);
    std::snprintf(buf, sizeof(buf), "%d m %.1f s", minutes, seconds - 60.0 * minutes);
  } else if (seconds >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.1f s", seconds);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f ms", seconds * 1e3);
  }
  return buf;
}

}  // namespace statsize::bench
