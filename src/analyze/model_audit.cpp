#include "analyze/model_audit.h"

#include <cmath>
#include <cstdio>
#include <string>

#include "core/full_space.h"
#include "nlp/derivative_check.h"
#include "ssta/delay_model.h"
#include "stat/clark.h"
#include "stat/random.h"

namespace statsize::analyze {

namespace {

using netlist::NodeId;
using netlist::NodeKind;
using stat::NormalRV;

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

Report audit_problem_bounds(const nlp::Problem& problem, std::string_view what) {
  Report report;
  const std::string suffix = " [" + std::string(what) + "]";
  for (int i = 0; i < problem.num_vars(); ++i) {
    const std::size_t k = static_cast<std::size_t>(i);
    const double lo = problem.lower()[k];
    const double hi = problem.upper()[k];
    const double s0 = problem.start()[k];
    const std::string locus = "variable '" + problem.var_name(i) + "'" + suffix;
    if (!(lo <= hi)) {
      report.add("MOD001", locus,
                 "empty bound box: lower " + fmt(lo) + " exceeds upper " + fmt(hi));
      continue;
    }
    if (std::isnan(s0) || std::isinf(s0)) {
      report.add("MOD001", locus, "start value is not finite");
      continue;
    }
    const double slack = 1e-9 * (1.0 + std::abs(s0));
    if (s0 < lo - slack || s0 > hi + slack) {
      report.add("MOD001", locus,
                 "start " + fmt(s0) + " lies outside bounds [" + fmt(lo) + ", " + fmt(hi) + "]",
                 "the optimizer projects onto the box, silently moving the start point");
    }
  }
  return report;
}

Report audit_clark_degeneracy(const netlist::Circuit& circuit, const ssta::SigmaModel& model,
                              const std::vector<double>& speed, double theta_threshold) {
  Report report;
  const ssta::DelayCalculator calc(circuit, model);
  const std::vector<NormalRV> delays = calc.all_delays(speed);
  std::vector<NormalRV> arrival(static_cast<std::size_t>(circuit.num_nodes()));
  std::vector<char> is_const(static_cast<std::size_t>(circuit.num_nodes()), 0);

  auto check_pair = [&](const NormalRV& a, const NormalRV& b, bool any_live,
                        const std::string& locus, const std::string& where) {
    if (!any_live) return;  // folded at build time; no Clark element exists
    const double theta = std::sqrt(a.var + b.var);
    if (theta >= theta_threshold) return;
    report.add("MOD002", locus,
               where + ": theta = sqrt(" + fmt(a.var) + " + " + fmt(b.var) + ") = " +
                   fmt(theta) + " below threshold " + fmt(theta_threshold) + " (operand means " +
                   fmt(a.mu) + ", " + fmt(b.mu) + ")",
               "near-deterministic max operands make the Clark derivatives (eqs. 10-13) "
               "ill-conditioned; raise the sigma model's kappa/offset or review the merge");
  };

  for (NodeId id : circuit.topo_order()) {
    const netlist::Node& n = circuit.node(id);
    const std::size_t i = static_cast<std::size_t>(id);
    if (n.kind == NodeKind::kPrimaryInput) {
      arrival[i] = NormalRV{0.0, 0.0};
      is_const[i] = 1;
      continue;
    }
    NormalRV u = arrival[static_cast<std::size_t>(n.fanins[0])];
    bool u_const = is_const[static_cast<std::size_t>(n.fanins[0])] != 0;
    for (std::size_t k = 1; k < n.fanins.size(); ++k) {
      const std::size_t f = static_cast<std::size_t>(n.fanins[k]);
      check_pair(u, arrival[f], !u_const || !is_const[f], "gate '" + n.name + "'",
                 "fanin merge " + std::to_string(k));
      u = stat::clark_max(u, arrival[f]);
      u_const = u_const && is_const[f];
    }
    arrival[i] = stat::add(u, delays[i]);
  }

  const std::vector<NodeId>& outs = circuit.outputs();
  NormalRV total = arrival[static_cast<std::size_t>(outs[0])];
  bool total_const = is_const[static_cast<std::size_t>(outs[0])] != 0;
  for (std::size_t k = 1; k < outs.size(); ++k) {
    const std::size_t o = static_cast<std::size_t>(outs[k]);
    check_pair(total, arrival[o], !total_const || !is_const[o],
               "output '" + circuit.node(outs[k]).name + "'",
               "primary-output merge " + std::to_string(k));
    total = stat::clark_max(total, arrival[o]);
    total_const = total_const && is_const[o];
  }
  return report;
}

Report audit_problem_derivatives(const nlp::Problem& problem, std::string_view what, int points,
                                 unsigned seed, double tol) {
  Report report;
  // Seeded SplitMix64, independent of libstdc++ distribution internals, so
  // findings are reproducible.
  stat::SplitMix64 rng(stat::SplitMix64::kGamma ^ seed);
  const std::string locus = "formulation [" + std::string(what) + "]";
  for (int sample = 0; sample <= points; ++sample) {
    std::vector<double> x = problem.start();
    if (sample > 0) {
      // Deterministic interior point: uniform in the middle 80% of each box,
      // with infinite bounds replaced by a start-scaled span. Staying off the
      // box faces keeps the check away from element kinks (SqrtElement's
      // floor sits at/below the variance lower bounds).
      for (int i = 0; i < problem.num_vars(); ++i) {
        const std::size_t k = static_cast<std::size_t>(i);
        const double span = 1.0 + 0.5 * std::abs(x[k]);
        const double lo =
            std::isinf(problem.lower()[k]) ? x[k] - span : problem.lower()[k];
        const double hi = std::isinf(problem.upper()[k]) ? x[k] + span : problem.upper()[k];
        x[k] = lo + (0.1 + 0.8 * rng.uniform01()) * (hi - lo);
      }
    }
    const nlp::DerivativeReport dr = nlp::check_problem_derivatives(problem, x);
    if (!dr.ok(tol)) {
      report.add("MOD003", locus,
                 std::string(sample == 0 ? "at the feasible start point"
                                         : "at randomized point " + std::to_string(sample)) +
                     ": max gradient error " + fmt(dr.max_gradient_error) +
                     ", max Hessian error " + fmt(dr.max_hessian_error) + " (tolerance " +
                     fmt(tol) + ")",
                 "an analytic derivative disagrees with central differences; the optimizer "
                 "would converge to a wrong sizing or stall");
    }
  }
  return report;
}

Report audit_spec(const core::SizingSpec& spec, const netlist::Circuit& circuit) {
  Report report;
  if (spec.max_speed < 1.0) {
    report.add("MOD004", "sizing spec",
               "max_speed = " + fmt(spec.max_speed) +
                   " is below 1, so the sizing box S in [1, limit] is empty");
  }
  if (spec.objective.kind == core::ObjectiveKind::kWeighted &&
      static_cast<int>(spec.objective.weights.size()) < circuit.num_nodes()) {
    report.add("MOD004", "sizing spec",
               "weighted objective carries " + std::to_string(spec.objective.weights.size()) +
                   " weights for " + std::to_string(circuit.num_nodes()) + " nodes",
               "weights must be indexed by NodeId (ssta::power_weights produces the right shape)");
  }
  if (spec.delay_constraint && spec.delay_constraint->bound <= 0.0) {
    report.add("MOD004", "sizing spec",
               "delay bound " + fmt(spec.delay_constraint->bound) +
                   " is not positive, but gate delays are (t_int > 0)");
  }
  return report;
}

Report audit_view_compilability(const netlist::Circuit& circuit) {
  Report report;
  const netlist::CellLibrary& lib = circuit.library();
  std::vector<char> cell_flagged(static_cast<std::size_t>(lib.size()), 0);
  for (NodeId id = 0; id < circuit.num_nodes(); ++id) {
    const netlist::Node& n = circuit.node(id);
    if (!std::isfinite(n.wire_load) || (n.is_output && !std::isfinite(n.pad_load))) {
      report.add("MOD005", "node '" + n.name + "'",
                 "wire/pad load (" + fmt(n.wire_load) + " / " + fmt(n.pad_load) +
                     ") is not finite, so the node's precomputed static load would be NaN/Inf",
                 "Circuit::finalize() would reject the circuit when compiling its TimingView");
    }
    if (n.kind != NodeKind::kGate || n.cell < 0 || n.cell >= lib.size()) continue;
    if (cell_flagged[static_cast<std::size_t>(n.cell)]) continue;  // one finding per cell
    const netlist::CellType& cell = lib.cell(n.cell);
    const struct {
      const char* what;
      double value;
    } params[] = {{"intrinsic delay t_int", cell.t_int},
                  {"drive coefficient c", cell.c},
                  {"input capacitance c_in", cell.c_in},
                  {"area", cell.area}};
    for (const auto& p : params) {
      if (std::isfinite(p.value)) continue;
      cell_flagged[static_cast<std::size_t>(n.cell)] = 1;
      report.add("MOD005", "cell '" + cell.name + "'",
                 std::string(p.what) + " = " + fmt(p.value) +
                     " is not finite; the TimingView precomputes it into per-gate constants "
                     "and per-fanout-edge capacitances, poisoning every timing sweep",
                 "Circuit::finalize() would reject the circuit when compiling its TimingView");
      break;
    }
  }
  return report;
}

Report audit_model(const netlist::Circuit& circuit, const ModelAuditOptions& options) {
  Report report;
  core::SizingSpec base;
  base.sigma_model = options.sigma_model;
  base.max_speed = options.max_speed;
  report.merge(audit_spec(base, circuit));
  if (report.has_errors()) return report;  // a broken spec makes the builds meaningless

  const std::vector<double> unit(static_cast<std::size_t>(circuit.num_nodes()), 1.0);
  report.merge(
      audit_clark_degeneracy(circuit, options.sigma_model, unit, options.theta_threshold));

  // Audit spec: mu + 3 sigma objective plus a just-tight delay constraint so
  // the formulation materializes every element family (Product, Square,
  // Clark, Sqrt) and the inequality slack.
  const ssta::DelayCalculator calc(circuit, options.sigma_model);
  NormalRV total{0.0, 0.0};
  {
    // Cheap bound for the constraint: SSTA at S = 1 (the slowest sizing).
    const std::vector<NormalRV> delays = calc.all_delays(unit);
    std::vector<NormalRV> arrival(static_cast<std::size_t>(circuit.num_nodes()));
    for (NodeId id : circuit.topo_order()) {
      const netlist::Node& n = circuit.node(id);
      if (n.kind == NodeKind::kPrimaryInput) continue;
      NormalRV u = arrival[static_cast<std::size_t>(n.fanins[0])];
      for (std::size_t k = 1; k < n.fanins.size(); ++k) {
        u = stat::clark_max(u, arrival[static_cast<std::size_t>(n.fanins[k])]);
      }
      arrival[static_cast<std::size_t>(id)] = stat::add(u, delays[static_cast<std::size_t>(id)]);
    }
    total = arrival[static_cast<std::size_t>(circuit.outputs()[0])];
    for (std::size_t k = 1; k < circuit.outputs().size(); ++k) {
      total = stat::clark_max(total, arrival[static_cast<std::size_t>(circuit.outputs()[k])]);
    }
  }
  core::SizingSpec audit_spec_ = base;
  audit_spec_.objective = core::Objective::min_delay(3.0);
  audit_spec_.delay_constraint =
      core::DelayConstraint::at_most(0.98 * total.quantile_offset(3.0), 3.0);

  const int num_formulations = options.audit_nary ? 2 : 1;
  for (int variant = 0; variant < num_formulations; ++variant) {
    audit_spec_.nary_fanin_max = variant == 1;
    const char* what = variant == 1 ? "full-space, n-ary max" : "full-space, pairwise max";
    const core::FullSpaceFormulation form = core::build_full_space(circuit, audit_spec_, 1.0);
    report.merge(audit_problem_bounds(*form.problem, what));
    if (options.derivative_audit && options.derivative_points >= 0) {
      report.merge(audit_problem_derivatives(*form.problem, what, options.derivative_points,
                                             options.rng_seed + static_cast<unsigned>(variant),
                                             options.derivative_tol));
    }
  }
  return report;
}

}  // namespace statsize::analyze
