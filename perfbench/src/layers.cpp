// Per-layer probes: each one times a single layer's public entry point from
// outside, on the workload's circuit, so a traced run can say which layer an
// end-to-end change came from.
#include <sstream>
#include <vector>

#include "core/full_space.h"
#include "core/reduced_space.h"
#include "netlist/blif.h"
#include "netlist/generators.h"
#include "netlist/timing_view.h"
#include "nlp/auglag.h"
#include "nlp/projected_lbfgs.h"
#include "runtime/runtime.h"
#include "ssta/monte_carlo.h"
#include "ssta/ssta.h"
#include "stat/clark.h"
#include "workloads.h"

namespace perfbench {

using namespace statsize;

namespace {

/// Median over `reps` timed calls of `fn`, in ms.
template <class Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    ms.push_back(ms_since(t0));
  }
  return median(ms);
}

volatile double g_sink = 0.0;

std::vector<stat::NormalRV> seeded_operands(std::uint64_t seed, std::size_t n) {
  SplitMix64 rng(seed, 7);
  std::vector<stat::NormalRV> out(n);
  for (stat::NormalRV& rv : out) {
    rv.mu = 10.0 * rng.uniform();
    rv.var = 0.01 + 4.0 * rng.uniform();
  }
  return out;
}

void clark_probes(Context& ctx) {
  constexpr std::size_t kPairs = 4096;
  const std::vector<stat::NormalRV> a = seeded_operands(ctx.seed, kPairs);
  const std::vector<stat::NormalRV> b = seeded_operands(ctx.seed + 1, kPairs);
  const int reps = ctx.smoke ? 3 : 31;
  const double ns_scale = 1e6 / static_cast<double>(kPairs);
  ctx.result->set("stat.clark_max_ns", ns_scale * median_ms(reps, [&] {
    double acc = 0.0;
    for (std::size_t i = 0; i < kPairs; ++i) acc += stat::clark_max(a[i], b[i]).mu;
    g_sink = acc;
  }), "ns");
  ctx.result->set("stat.clark_full_ns", ns_scale * median_ms(reps, [&] {
    double acc = 0.0;
    stat::ClarkGrad grad;
    stat::ClarkHess hess;
    for (std::size_t i = 0; i < kPairs; ++i) {
      acc += stat::clark_max_full(a[i], b[i], grad, hess).mu + hess.mu[0];
    }
    g_sink = acc;
  }), "ns");
}

void netlist_probes(Context& ctx, const std::string& circuit_name) {
  const int reps = ctx.smoke ? 1 : 5;
  ctx.result->set("netlist.build_ms", median_ms(reps, [&] {
    g_sink = netlist::make_mcnc_like(circuit_name).num_gates();
  }), "ms");
  std::ostringstream text;
  netlist::write_blif(text, netlist::make_mcnc_like("k2"), "k2");
  const std::string blif = text.str();
  ctx.result->set("netlist.blif_parse_ms", median_ms(reps, [&] {
    std::istringstream in(blif);
    g_sink = netlist::read_blif(in).num_gates();
  }), "ms");
}

void ssta_probes(Context& ctx, const netlist::Circuit& circuit) {
  const ssta::DelayCalculator calc(circuit);
  const std::vector<double> speed(static_cast<std::size_t>(circuit.num_nodes()), 1.0);
  ctx.result->set("ssta.sweep_ms", median_ms(ctx.smoke ? 3 : 21, [&] {
    g_sink = ssta::run_ssta(calc, speed).circuit_delay.mu;
  }), "ms");

  const netlist::Circuit k2 = netlist::make_mcnc_like("k2");
  const ssta::DelayCalculator k2_calc(k2);
  const std::vector<stat::NormalRV> delays =
      k2_calc.all_delays(std::vector<double>(static_cast<std::size_t>(k2.num_nodes()), 1.0));
  ssta::MonteCarloOptions mc;
  mc.num_samples = 2000;
  mc.seed = ctx.seed;
  const int reps = ctx.smoke ? 1 : 3;
  auto run_mc = [&] { g_sink = ssta::run_monte_carlo(k2, delays, mc).mean; };
  ctx.result->set("ssta.mc_ms", median_ms(reps, run_mc), "ms");
  double at_one = 0.0, at_default = 0.0;
  with_threads(1, [&] { at_one = median_ms(reps, run_mc); });
  with_threads(0, [&] { at_default = median_ms(reps, run_mc); });
  ctx.result->set("runtime.jobs1_ratio.mc", at_one / at_default, "ratio");
}

}  // namespace

double fwd_adj_ms(const Context& ctx, const netlist::Circuit& circuit) {
  core::ReducedEvaluator eval(circuit, core::SizingSpec{}.sigma_model);
  const std::vector<double> speed(static_cast<std::size_t>(circuit.num_nodes()), 1.0);
  std::vector<double> grad;
  return median_ms(ctx.smoke ? 3 : 21, [&] {
    eval.invalidate();
    g_sink = eval.eval_with_grad(speed, 1.0, 0.0, grad).mu;
  });
}

namespace {

void evaluator_probes(Context& ctx, const netlist::Circuit& circuit) {
  const core::SizingSpec spec;
  core::ReducedEvaluator eval(circuit, spec.sigma_model);
  const std::vector<double> speed(static_cast<std::size_t>(circuit.num_nodes()), 1.0);
  const int reps = ctx.smoke ? 3 : 21;
  ctx.result->set("core.fwd_ms", median_ms(reps, [&] {
    eval.invalidate();
    g_sink = eval.eval(speed).mu;
  }), "ms");
  ctx.result->set("core.fwd_adj_ms", fwd_adj_ms(ctx, circuit), "ms");
  core::SizingSpec mu3 = spec;
  mu3.objective = core::Objective::min_delay(3.0);
  ctx.result->set("core.full_space_build_ms", median_ms(ctx.smoke ? 1 : 3, [&] {
    g_sink = core::build_full_space(circuit, mu3, 1.0).num_max_pairs;
  }), "ms");
}

/// Projected L-BFGS on the min mu+3sigma objective through eval_metric, with
/// every GradFn call counted and spanned, so the solver's self time is its
/// span minus the callback spans.
void lbfgs_probe(Context& ctx, const netlist::Circuit& circuit) {
  const core::ReducedEvaluator eval(circuit, core::SizingSpec{}.sigma_model);
  const std::size_t n = static_cast<std::size_t>(circuit.num_nodes());
  std::vector<double> x(n, 1.0), lower(n, 1.0), upper(n, 1.0);
  for (const netlist::NodeId g : circuit.view().gates_in_topo_order()) {
    upper[static_cast<std::size_t>(g)] = core::SizingSpec{}.max_speed;
  }
  long evals = 0;
  int solve_span = -1;
  const nlp::GradFn fn = [&](const std::vector<double>& v, std::vector<double>& grad) {
    Trace::Scope span(*ctx.trace, "nlp.lbfgs.eval", evals++, solve_span);
    return eval.eval_metric(v, 3.0, &grad);
  };
  nlp::LbfgsOptions options;
  options.tol = core::SizerOptions{}.optimality_tol;
  options.max_iterations = ctx.smoke ? 50 : core::SizerOptions{}.max_inner_iterations;
  nlp::LbfgsResult r;
  {
    Trace::Scope span(*ctx.trace, "nlp.lbfgs.solve");
    solve_span = span.index();
    r = nlp::minimize_projected_lbfgs(fn, x, lower, upper, options);
  }
  ctx.result->set("nlp.lbfgs.evals_per_iter",
                  static_cast<double>(evals) / std::max(1, r.iterations), "count");
  ctx.result->set("nlp.lbfgs.self_ms", ctx.trace->self_ms(solve_span), "ms");
}

/// The augmented-Lagrangian solver on apex2's full-space problem (min mu),
/// started like Sizer starts it: from the reduced-space sizing. One span per
/// outer iteration, between on_outer callbacks.
void auglag_probe(Context& ctx) {
  const netlist::Circuit apex2 = netlist::make_mcnc_like("apex2");
  core::SizingSpec spec;
  spec.objective = core::Objective::min_delay(0.0);
  core::SizerOptions pre;
  pre.method = core::Method::kReducedSpace;
  const core::SizingResult start = core::Sizer(apex2, spec).run(pre);
  const core::FullSpaceFormulation form = core::build_full_space(apex2, spec, start.speed);

  const core::SizerOptions sizer;
  nlp::AugLagOptions options;
  options.feasibility_tol = sizer.feasibility_tol;
  options.optimality_tol = sizer.optimality_tol;
  options.max_outer_iterations = sizer.max_outer_iterations;
  options.max_inner_iterations = sizer.max_inner_iterations;
  int outer_span = ctx.trace->open("nlp.auglag.outer");
  options.on_outer = [&](int, const std::vector<double>&, double, double) {
    ctx.trace->close(outer_span);
    outer_span = ctx.trace->open("nlp.auglag.outer");
  };
  const nlp::SolveResult r = nlp::solve_augmented_lagrangian(*form.problem, options);
  ctx.trace->close(outer_span);  // the tail after the last outer iteration
  ctx.result->check(r.ok(), "auglag probe: " + r.status_string());
  std::vector<double> outer_ms = ctx.trace->durations("nlp.auglag.outer");
  outer_ms.pop_back();
  ctx.result->set("nlp.auglag.outer_ms", median(outer_ms), "ms");
  ctx.result->set("nlp.auglag.inner_iterations", r.inner_iterations, "count");
}

void region_probe(Context& ctx) {
  constexpr int kRegions = 200;
  with_threads(0, [&] {
    const std::size_t n = static_cast<std::size_t>(runtime::threads()) * 32;
    ctx.result->set("runtime.region_us", 1000.0 / kRegions * median_ms(ctx.smoke ? 3 : 31, [&] {
      for (int i = 0; i < kRegions; ++i) {
        runtime::parallel_for(n, 32, [](std::size_t, std::size_t) {});
      }
    }), "us");
  });
}

}  // namespace

void layer_probes(Context& ctx, const std::string& circuit_name) {
  const netlist::Circuit circuit = netlist::make_mcnc_like(circuit_name);
  clark_probes(ctx);
  netlist_probes(ctx, circuit_name);
  ssta_probes(ctx, circuit);
  evaluator_probes(ctx, circuit);
  lbfgs_probe(ctx, circuit);
  auglag_probe(ctx);
  region_probe(ctx);
}

}  // namespace perfbench
