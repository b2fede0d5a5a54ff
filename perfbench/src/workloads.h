// The benchmark's workloads and layer probes. Each workload fills the
// end-to-end metrics of an untraced run (setup_s, wall_s, op_ms.p50,
// op_ms.p99; main adds peak_rss_mb) and, in a traced run, the per-layer
// metrics of the layers it exercises. main fills the remaining per-layer
// metrics from the probes below, so every traced run reports every layer.
#pragma once

#include <string>

#include "common.h"
#include "core/sizer.h"
#include "netlist/circuit.h"

namespace perfbench {

void run_size_reduced_k2(Context& ctx);
void run_size_full_apex2(Context& ctx);
void run_eco_k2(Context& ctx);
void run_serve_mixed(Context& ctx);

/// One Table 1 row: what to solve and the objective the seed commit reached.
struct SizeRow {
  std::string label;
  statsize::core::SizingSpec spec;
  statsize::core::Method method = statsize::core::Method::kReducedSpace;
  double optimality_tol = statsize::core::SizerOptions{}.optimality_tol;
  double ref_objective = 0.0;
};

/// Runs one row and counts it as one operation in `sink`: failed when the
/// solve did not converge, the delay constraint is violated beyond the
/// sizer's feasibility tolerance, or the objective is worse than the seed
/// commit's by more than 0.1%.
statsize::core::SizingResult solve_and_check(Context& ctx, Result& sink,
                                             const statsize::netlist::Circuit& circuit,
                                             const SizeRow& row, long op_id);

/// Table 1's min mu+3sigma row on k2 in the reduced space.
SizeRow k2_min_mu3sigma_row();
/// The same row on apex2: what serve_mixed's size jobs solve.
SizeRow apex2_min_mu3sigma_row();

/// Wall time of `row` at runtime::set_threads(1) over its wall time at the
/// default thread count (median of three solves each; ROADMAP: the default
/// must never be slower than --jobs 1).
double jobs1_ratio(Context& ctx, const statsize::netlist::Circuit& circuit, const SizeRow& row);

/// Median time of one ReducedEvaluator::eval_with_grad after invalidate()
/// on `circuit` at unit speeds (a forward plus an adjoint sweep), in ms.
double fwd_adj_ms(const Context& ctx, const statsize::netlist::Circuit& circuit);

/// Per-layer probes that measure single layers from outside on the given
/// circuit (stat, netlist, ssta, core evaluator, nlp, runtime); sets each
/// probe metric in `ctx.result`.
void layer_probes(Context& ctx, const std::string& circuit_name);

/// Small ECO stream / serve run whose only purpose is the eco / serve
/// per-layer metrics of a traced run on a workload that does not exercise
/// those layers itself. Their operations count toward checks, not toward
/// the run's attempted operations.
void eco_layer_probe(Context& ctx);
void serve_layer_probe(Context& ctx);

/// Self-test: with the reduced.eval fault armed, a solve must count as
/// failed. Returns the process exit code.
int selftest_fault();

}  // namespace perfbench
