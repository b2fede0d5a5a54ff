// size_reduced_k2 and size_full_apex2: closed-loop Table 1 solves, one at a
// time, through core::Sizer::run.
#include <cmath>
#include <cstdio>
#include <optional>
#include <vector>

#include "netlist/generators.h"
#include "runtime/fault.h"
#include "ssta/ssta.h"
#include "workloads.h"

namespace perfbench {

using namespace statsize;

namespace {

constexpr double kObjectiveTolerance = 1e-3;

/// Table 1's delay bound: 45% up the achievable mean-delay range, between
/// all gates at the limit and all gates at 1 (as bench/table1_benchmarks).
double table1_bound(const netlist::Circuit& circuit) {
  const core::SizingSpec spec;
  const ssta::DelayCalculator calc(circuit, spec.sigma_model);
  std::vector<double> speed(static_cast<std::size_t>(circuit.num_nodes()), spec.max_speed);
  const double lo = ssta::run_ssta(calc, speed).circuit_delay.mu;
  std::fill(speed.begin(), speed.end(), 1.0);
  const double hi = ssta::run_ssta(calc, speed).circuit_delay.mu;
  return lo + 0.45 * (hi - lo);
}

}  // namespace

core::SizingResult solve_and_check(Context& ctx, Result& sink, const netlist::Circuit& circuit,
                                   const SizeRow& row, long op_id) {
  core::SizerOptions options;
  options.method = row.method;
  options.optimality_tol = row.optimality_tol;
  core::SizingResult r;
  {
    Trace::Scope span(*ctx.trace, "core.sizer_run", op_id);
    r = core::Sizer(circuit, row.spec).run(options);
  }
  const bool status_ok = r.converged;
  double feas = options.feasibility_tol;
  if (row.spec.delay_constraint) feas *= 1.0 + std::abs(row.spec.delay_constraint->bound);
  const bool feasible = r.constraint_violation <= feas;
  const bool objective_ok =
      std::isfinite(r.objective_value) &&
      r.objective_value <= row.ref_objective + kObjectiveTolerance * std::abs(row.ref_objective);
  char why[320];
  std::snprintf(why, sizeof(why),
                "solve '%s': status %s, violation %.3g (tol %.3g), objective %.10g (reference "
                "%.10g)",
                row.label.c_str(), r.status.c_str(), r.constraint_violation, feas,
                r.objective_value, row.ref_objective);
  sink.op(status_ok && feasible && objective_ok, why);
  return r;
}

namespace {

struct SizeSetup {
  netlist::Circuit circuit;
  std::vector<SizeRow> rows;  ///< one pass, in order
};

SizeRow make_row(const std::string& label, core::Objective objective,
                 std::optional<core::DelayConstraint> constraint, core::Method method,
                 double ref) {
  SizeRow row;
  row.label = label;
  row.spec.objective = std::move(objective);
  row.spec.delay_constraint = constraint;
  row.method = method;
  row.ref_objective = ref;
  return row;
}

// Objective values reached at the seed commit (Release build; the solves are
// bit-identical at any thread count).
constexpr double kRefK2MinMu3Sigma = 107.78528805090167;
constexpr double kRefK2MinAreaMu = 1705.5090294223171;  // at the default tolerance
constexpr double kK2ConstrainedTol = 1e-3;
constexpr double kRefApex2MinMu3SigmaReduced = 56.415022611329249;
constexpr double kRefApex2[6] = {53.50767796364633,  54.484206345498237, 56.415018976167602,
                                 118.28611236004433, 118.96309828980976, 120.63331518082114};

}  // namespace

SizeRow k2_min_mu3sigma_row() {
  return make_row("k2 min mu+3sigma", core::Objective::min_delay(3.0), std::nullopt,
                  core::Method::kReducedSpace, kRefK2MinMu3Sigma);
}

SizeRow apex2_min_mu3sigma_row() {
  return make_row("apex2 min mu+3sigma (reduced)", core::Objective::min_delay(3.0), std::nullopt,
                  core::Method::kReducedSpace, kRefApex2MinMu3SigmaReduced);
}

double jobs1_ratio(Context& ctx, const netlist::Circuit& circuit, const SizeRow& row) {
  std::vector<double> at_default, at_one;
  Result scratch;
  auto timed_solve = [&](std::vector<double>& into) {
    const Clock::time_point t0 = Clock::now();
    solve_and_check(ctx, scratch, circuit, row, -1);
    into.push_back(ms_since(t0));
  };
  for (int rep = 0; rep < (ctx.smoke ? 1 : 3); ++rep) {
    with_threads(1, [&] { timed_solve(at_one); });
    with_threads(0, [&] { timed_solve(at_default); });
  }
  ctx.result->check(scratch.failed() == 0, "jobs-1 ratio solves");
  return median(at_one) / median(at_default);
}

namespace {

SizeSetup setup_reduced_k2(bool smoke) {
  SizeSetup s{netlist::make_mcnc_like("k2"), {k2_min_mu3sigma_row()}};
  if (smoke) return s;
  s.rows.push_back(k2_min_mu3sigma_row());  // twice, so the pass's median solve is this row
  // At the default optimality tolerance this row runs 3233 L-BFGS iterations
  // (25-39 s at the default thread count on a 4-core host, spreading +-20%
  // from run to run) for an objective that agrees to 1e-8 with the one
  // reached at 1e-3 in 214 iterations. The looser tolerance keeps the row's
  // many line-search trials per iteration and lets a run repeat it.
  SizeRow row = make_row("k2 min sum(S) s.t. mu <= D", core::Objective::min_area(),
                         core::DelayConstraint::at_most(table1_bound(s.circuit), 0.0),
                         core::Method::kReducedSpace, kRefK2MinAreaMu);
  row.optimality_tol = kK2ConstrainedTol;
  s.rows.push_back(row);
  return s;
}

SizeSetup setup_full_apex2(bool smoke) {
  SizeSetup s{netlist::make_mcnc_like("apex2"), {}};
  const double bound = table1_bound(s.circuit);
  const double ks[3] = {0.0, 1.0, 3.0};
  for (int i = 0; i < 3; ++i) {
    if (smoke && i > 0) continue;
    s.rows.push_back(make_row("apex2 min mu+" + std::to_string(static_cast<int>(ks[i])) +
                                  "sigma",
                              core::Objective::min_delay(ks[i]), std::nullopt,
                              core::Method::kFullSpace, kRefApex2[i]));
  }
  for (int i = 0; i < 3; ++i) {
    if (smoke && i > 0) continue;
    s.rows.push_back(make_row("apex2 min sum(S) s.t. mu+" +
                                  std::to_string(static_cast<int>(ks[i])) + "sigma <= D",
                              core::Objective::min_area(),
                              core::DelayConstraint::at_most(bound, ks[i]),
                              core::Method::kFullSpace, kRefApex2[3 + i]));
  }
  return s;
}

void run_size(Context& ctx, SizeSetup (*setup)(bool)) {
  Result& res = *ctx.result;
  std::optional<SizeSetup> setup_state;
  res.set("setup_s",
          median_setup_seconds(ctx, 5, [&] { setup_state.emplace(setup(ctx.smoke)); }), "s");
  const SizeSetup& s = *setup_state;

  std::vector<double> pass_s;
  std::vector<std::vector<double>> row_ms(s.rows.size());
  int first_iterations = 0;
  int first_outer = 0;
  long op_id = 0;
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point p0 = Clock::now();
    for (std::size_t i = 0; i < s.rows.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      const core::SizingResult r = solve_and_check(ctx, res, s.circuit, s.rows[i], op_id++);
      row_ms[i].push_back(ms_since(t0));
      if (pass_s.empty()) {
        first_iterations += r.iterations;
        first_outer += r.outer_iterations;
      }
    }
    pass_s.push_back(ms_since(p0) / 1000.0);
  } while (ms_since(start) < ctx.seconds * 1000.0);

  // The latency distribution is that of one pass's solves, each solve's time
  // taken as its median over the run's passes.
  std::vector<double> solve_ms;
  for (const std::vector<double>& ms : row_ms) solve_ms.push_back(median(ms));
  res.set("wall_s", median(pass_s), "s");
  res.set("op_ms.p50", quantile(solve_ms, 0.50), "ms");
  res.set("op_ms.p99", quantile(solve_ms, 0.99), "ms");
  std::printf("# %zu passes of %zu solves; pass wall median %.3f s\n", pass_s.size(),
              s.rows.size(), median(pass_s));
  if (!ctx.traced()) return;

  res.set("core.iterations", first_iterations, "count");
  res.set("core.outer_iterations", first_outer, "count");
  res.set("core.ms_per_iter", median(pass_s) * 1000.0 / std::max(1, first_iterations), "ms");

  res.set("runtime.jobs1_ratio.size", jobs1_ratio(ctx, s.circuit, s.rows.front()), "ratio");
}

}  // namespace

void run_size_reduced_k2(Context& ctx) { run_size(ctx, setup_reduced_k2); }
void run_size_full_apex2(Context& ctx) { run_size(ctx, setup_full_apex2); }

int selftest_fault() {
  Trace trace(false);
  Result result;
  Context ctx;
  ctx.trace = &trace;
  ctx.result = &result;
  const SizeSetup s = setup_reduced_k2(true);
  {
    runtime::fault::ScopedFault fault("reduced.eval:1");
    solve_and_check(ctx, result, s.circuit, s.rows.front(), 0);
  }
  // The same solve without the fault must pass, so the failure above is the
  // fault's doing and not a broken reference.
  solve_and_check(ctx, result, s.circuit, s.rows.front(), 1);
  const bool ok = result.attempted() == 2 && result.failed() == 1 && !result.correct();
  std::printf("selftest-fault: attempted %ld failed %ld -> %s\n", result.attempted(),
              result.failed(), ok ? "ok" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace perfbench
