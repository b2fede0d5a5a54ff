// Machine-readable export of timing / sizing analyses: a JSON document with
// the circuit summary, the delay distribution (independence and, optionally,
// correlation-aware), per-gate sizes, slacks, and the critical path. Consumed
// by scripts and dashboards downstream of the `statsize` CLI (--json-out).

#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "netlist/circuit.h"
#include "ssta/slack.h"
#include "ssta/ssta.h"

namespace statsize::ssta {

/// Solver outcome + resilience provenance (DESIGN.md §9), emitted as the
/// report's "solve" object so downstream dashboards can tell a converged
/// sizing from a best-checkpoint degradation.
struct SolveReport {
  std::string status;             ///< e.g. "full-space/converged", ".../time-limit"
  bool converged = false;
  int iterations = 0;
  int outer_iterations = 0;
  int evaluations = 0;            ///< objective evaluations (SizingResult::evaluations)
  double wall_seconds = 0.0;
  int retries_used = 0;           ///< multistart restarts consumed
  bool from_checkpoint = false;   ///< sizing restored from a best-iterate checkpoint
  int checkpoint_outer = -1;      ///< outer iteration the checkpoint was taken after
  std::string breakdown_site;     ///< tripwire detail on numerical breakdown
};

struct JsonReportOptions {
  bool include_per_node = true;    ///< arrival/slack/speed for every gate
  bool include_canonical = false;  ///< add the correlation-aware circuit delay
  double deadline = 0.0;           ///< for slacks; <= 0 -> mu + 3 sigma
  std::optional<SolveReport> solve;  ///< solver/resilience section, if a solve ran
};

/// Writes the full analysis of `circuit` at `speed` as one JSON object.
void write_json_report(std::ostream& out, const netlist::Circuit& circuit,
                       const DelayCalculator& calc, const std::vector<double>& speed,
                       const JsonReportOptions& options = {});

}  // namespace statsize::ssta
