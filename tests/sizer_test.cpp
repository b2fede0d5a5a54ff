// End-to-end sizing tests: both solution methods on the paper's tree circuit
// and on generated circuits, checking the qualitative structure the paper's
// Tables 2 and 3 report, plus cross-method agreement and yield behaviour.

#include "core/sizer.h"

#include "netlist/generators.h"
#include "ssta/monte_carlo.h"
#include "ssta/ssta.h"

#include <cmath>
#include <map>

#include <gtest/gtest.h>

namespace statsize::core {
namespace {

using netlist::Circuit;
using netlist::NodeId;
using netlist::NodeKind;

SizerOptions opts(Method m) {
  SizerOptions o;
  o.method = m;
  return o;
}

/// mu target at `frac` of the way from the fastest to the slowest uniform
/// sizing (frac = 0 -> fastest achievable mean).
double tree_mid_mu(const Circuit& c, double frac) {
  SizingSpec spec;
  const ssta::DelayCalculator calc(c, spec.sigma_model);
  std::vector<double> s(static_cast<std::size_t>(c.num_nodes()), spec.max_speed);
  const double mu_min = ssta::run_ssta(calc, s).circuit_delay.mu;
  std::fill(s.begin(), s.end(), 1.0);
  const double mu_max = ssta::run_ssta(calc, s).circuit_delay.mu;
  return mu_min + frac * (mu_max - mu_min);
}

/// Speed factor of the gate with the given (single-letter) name.
double speed_of(const Circuit& c, const SizingResult& r, const std::string& name) {
  for (NodeId id : c.topo_order()) {
    if (c.node(id).kind == NodeKind::kGate && c.node(id).name == name) {
      return r.speed[static_cast<std::size_t>(id)];
    }
  }
  throw std::runtime_error("no gate " + name);
}

class SizerBothMethods : public ::testing::TestWithParam<Method> {};

TEST_P(SizerBothMethods, MinAreaUnconstrainedIsAllOnes) {
  const Circuit c = netlist::make_tree_circuit();
  SizingSpec spec;
  spec.objective = Objective::min_area();
  const SizingResult r = Sizer(c, spec).run(opts(GetParam()));
  EXPECT_TRUE(r.converged) << r.status;
  EXPECT_NEAR(r.sum_speed, 7.0, 1e-6);
}

TEST_P(SizerBothMethods, MinMeanDelayBeatsUnitSizing) {
  const Circuit c = netlist::make_tree_circuit();
  SizingSpec spec;
  spec.objective = Objective::min_delay(0.0);
  const SizingResult r = Sizer(c, spec).run(opts(GetParam()));
  EXPECT_TRUE(r.converged) << r.status;

  const ssta::DelayCalculator calc(c, spec.sigma_model);
  const std::vector<double> unit(static_cast<std::size_t>(c.num_nodes()), 1.0);
  const double mu_unit = ssta::run_ssta(calc, unit).circuit_delay.mu;
  EXPECT_LT(r.circuit_delay.mu, 0.80 * mu_unit);  // paper sees ~27% gain
  EXPECT_GT(r.sum_speed, 7.0);                    // paid with area
}

TEST_P(SizerBothMethods, SigmaWeightTradesMeanForSpread) {
  // Table 1 pattern: going mu -> mu+3sigma gives slightly larger mu,
  // smaller sigma, smaller area.
  netlist::RandomDagParams dag;
  dag.num_gates = 60;
  dag.seed = 31;
  const Circuit c = netlist::make_random_dag(dag);
  SizingSpec spec;
  spec.objective = Objective::min_delay(0.0);
  const SizingResult r0 = Sizer(c, spec).run(opts(GetParam()));
  spec.objective = Objective::min_delay(3.0);
  const SizingResult r3 = Sizer(c, spec).run(opts(GetParam()));

  EXPECT_GE(r3.circuit_delay.mu, r0.circuit_delay.mu - 1e-4);
  EXPECT_LE(r3.circuit_delay.sigma(), r0.circuit_delay.sigma() + 1e-6);
  // And the mu+3sigma metric itself must be better (or equal) under the
  // objective that optimizes it.
  EXPECT_LE(r3.delay_metric(3.0), r0.delay_metric(3.0) + 1e-3);
}

TEST_P(SizerBothMethods, AreaMinimizationUnderDelayBound) {
  const Circuit c = netlist::make_tree_circuit();
  SizingSpec spec;
  spec.objective = Objective::min_area();
  spec.delay_constraint = DelayConstraint::at_most(tree_mid_mu(c, 0.4));
  const SizingResult r = Sizer(c, spec).run(opts(GetParam()));
  EXPECT_TRUE(r.converged) << r.status;
  EXPECT_LE(r.constraint_violation, 1e-4);
  EXPECT_NEAR(r.circuit_delay.mu, spec.delay_constraint->bound, 0.01);  // bound active
  EXPECT_LT(r.sum_speed, 21.0);
  EXPECT_GT(r.sum_speed, 7.0);
}

TEST_P(SizerBothMethods, TighterStatisticalConstraintNeedsMoreArea) {
  // Table 1 pattern: min area s.t. mu <= D needs less area than
  // s.t. mu + 3 sigma <= D.
  const Circuit c = netlist::make_mcnc_like("apex2");
  const ssta::DelayCalculator calc(c, {0.25, 0.0});
  const std::vector<double> unit(static_cast<std::size_t>(c.num_nodes()), 1.0);
  const double mu_unit = ssta::run_ssta(calc, unit).circuit_delay.mu;
  const double bound = 0.8 * mu_unit;

  SizingSpec spec;
  spec.objective = Objective::min_area();
  spec.delay_constraint = DelayConstraint::at_most(bound, 0.0);
  const SizingResult r_mu = Sizer(c, spec).run(opts(GetParam()));
  spec.delay_constraint = DelayConstraint::at_most(bound, 3.0);
  const SizingResult r_3s = Sizer(c, spec).run(opts(GetParam()));

  EXPECT_LE(r_mu.constraint_violation, 1e-3);
  EXPECT_LE(r_3s.constraint_violation, 1e-3);
  EXPECT_GT(r_3s.sum_speed, r_mu.sum_speed);
  // The mu+3sigma-constrained circuit ends up with smaller mu and sigma.
  EXPECT_LT(r_3s.circuit_delay.mu, r_mu.circuit_delay.mu);
  EXPECT_LT(r_3s.circuit_delay.sigma(), r_mu.circuit_delay.sigma());
}

TEST_P(SizerBothMethods, SigmaRangeAtFixedMean) {
  // Table 2 pattern: at a fixed mu there is a sigma interval
  // [min sigma, max sigma], and min-area lands inside it; min-sigma needs
  // more area than min-area.
  const Circuit c = netlist::make_tree_circuit();
  const double mu_target = tree_mid_mu(c, 0.45);

  SizingSpec spec;
  spec.delay_constraint = DelayConstraint::exactly(mu_target);
  spec.objective = Objective::min_area();
  const SizingResult r_area = Sizer(c, spec).run(opts(GetParam()));
  spec.objective = Objective::min_sigma();
  const SizingResult r_min = Sizer(c, spec).run(opts(GetParam()));
  spec.objective = Objective::max_sigma();
  const SizingResult r_max = Sizer(c, spec).run(opts(GetParam()));

  for (const SizingResult* r : {&r_area, &r_min, &r_max}) {
    EXPECT_TRUE(r->converged) << r->status;
    EXPECT_NEAR(r->circuit_delay.mu, mu_target, 0.02);
  }
  EXPECT_LE(r_min.circuit_delay.sigma(), r_area.circuit_delay.sigma() + 1e-4);
  EXPECT_GE(r_max.circuit_delay.sigma(), r_area.circuit_delay.sigma() - 1e-4);
  EXPECT_GT(r_max.circuit_delay.sigma(), r_min.circuit_delay.sigma() + 1e-3);
  EXPECT_GE(r_min.sum_speed, r_area.sum_speed - 1e-4);
}

TEST_P(SizerBothMethods, SpeedFactorsRespectTreeSymmetry) {
  // Table 3 pattern: {A,B,D,E} equal, {C,F} equal, G largest (min-area and
  // min-sigma objectives treat similar gates similarly, output gates get
  // larger factors).
  const Circuit c = netlist::make_tree_circuit();
  SizingSpec spec;
  spec.objective = Objective::min_area();
  // Mid-range target, like the paper's mu = 6.5 row of Table 3.
  spec.delay_constraint = DelayConstraint::exactly(tree_mid_mu(c, 0.55));
  const SizingResult r = Sizer(c, spec).run(opts(GetParam()));
  ASSERT_TRUE(r.converged) << r.status;

  const double sa = speed_of(c, r, "A");
  const double sb = speed_of(c, r, "B");
  const double sd = speed_of(c, r, "D");
  const double se = speed_of(c, r, "E");
  const double sc = speed_of(c, r, "C");
  const double sf = speed_of(c, r, "F");
  const double sg = speed_of(c, r, "G");
  EXPECT_NEAR(sa, sb, 0.02);
  EXPECT_NEAR(sa, sd, 0.02);
  EXPECT_NEAR(sa, se, 0.02);
  EXPECT_NEAR(sc, sf, 0.02);
  EXPECT_GT(sc, sa - 0.02);  // later levels at least as large
  EXPECT_GT(sg, sc - 0.02);
  EXPECT_GT(sg, sa + 0.05);  // output gate clearly largest
}

TEST_P(SizerBothMethods, InfeasibleBoundIsReportedNotSilentlyAccepted) {
  const Circuit c = netlist::make_tree_circuit();
  SizingSpec spec;
  spec.objective = Objective::min_area();
  spec.delay_constraint = DelayConstraint::at_most(1.0);  // impossible
  const SizingResult r = Sizer(c, spec).run(opts(GetParam()));
  EXPECT_FALSE(r.converged);
  EXPECT_GT(r.constraint_violation, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Methods, SizerBothMethods,
                         ::testing::Values(Method::kFullSpace, Method::kReducedSpace),
                         [](const ::testing::TestParamInfo<Method>& info) {
                           return info.param == Method::kFullSpace ? "FullSpace"
                                                                   : "ReducedSpace";
                         });

TEST(SizerCrossMethod, FullAndReducedAgreeOnTree) {
  const Circuit c = netlist::make_tree_circuit();
  for (double k : {0.0, 1.0, 3.0}) {
    SizingSpec spec;
    spec.objective = Objective::min_delay(k);
    const SizingResult rf = Sizer(c, spec).run(opts(Method::kFullSpace));
    const SizingResult rr = Sizer(c, spec).run(opts(Method::kReducedSpace));
    ASSERT_TRUE(rf.converged);
    ASSERT_TRUE(rr.converged);
    EXPECT_NEAR(rf.delay_metric(k), rr.delay_metric(k), 2e-3) << "k=" << k;
  }
}

TEST(SizerCrossMethod, FullAndReducedAgreeOnRandomDag) {
  netlist::RandomDagParams p;
  p.num_gates = 60;
  p.seed = 5;
  const Circuit c = netlist::make_random_dag(p);
  SizingSpec spec;
  spec.objective = Objective::min_delay(3.0);
  const SizingResult rf = Sizer(c, spec).run(opts(Method::kFullSpace));
  const SizingResult rr = Sizer(c, spec).run(opts(Method::kReducedSpace));
  ASSERT_TRUE(rf.converged) << rf.status;
  EXPECT_NEAR(rf.delay_metric(3.0), rr.delay_metric(3.0),
              2e-3 * (1.0 + rf.delay_metric(3.0)));
}

TEST(SizerCrossMethod, NaryModeFindsTheSameOptimum) {
  netlist::RandomDagParams p;
  p.num_gates = 60;
  p.seed = 5;
  const Circuit c = netlist::make_random_dag(p);
  SizingSpec spec;
  spec.objective = Objective::min_delay(3.0);
  const SizingResult pairwise = Sizer(c, spec).run(opts(Method::kFullSpace));
  spec.nary_fanin_max = true;
  const SizingResult nary = Sizer(c, spec).run(opts(Method::kFullSpace));
  ASSERT_TRUE(pairwise.converged) << pairwise.status;
  ASSERT_TRUE(nary.converged) << nary.status;
  EXPECT_NEAR(pairwise.delay_metric(3.0), nary.delay_metric(3.0),
              2e-3 * (1 + pairwise.delay_metric(3.0)));
}

TEST(SizerCrossMethod, WeightedObjectiveAgreesAcrossMethods) {
  const Circuit c = netlist::make_tree_circuit();
  // Non-uniform weights: favor keeping the leaves small.
  std::vector<double> weights(static_cast<std::size_t>(c.num_nodes()), 0.0);
  for (NodeId id : c.topo_order()) {
    if (c.node(id).kind == NodeKind::kGate) {
      weights[static_cast<std::size_t>(id)] = c.node(id).name == "G" ? 0.5 : 2.0;
    }
  }
  SizingSpec spec;
  spec.objective = Objective::min_weighted(weights);
  spec.delay_constraint = DelayConstraint::at_most(tree_mid_mu(c, 0.5));

  const SizingResult rf = Sizer(c, spec).run(opts(Method::kFullSpace));
  const SizingResult rr = Sizer(c, spec).run(opts(Method::kReducedSpace));
  ASSERT_TRUE(rf.converged) << rf.status;
  ASSERT_TRUE(rr.converged) << rr.status;
  auto weighted = [&](const SizingResult& r) {
    double w = 0.0;
    for (NodeId id : c.topo_order()) {
      if (c.node(id).kind == NodeKind::kGate) {
        w += weights[static_cast<std::size_t>(id)] * r.speed[static_cast<std::size_t>(id)];
      }
    }
    return w;
  };
  EXPECT_NEAR(weighted(rf), weighted(rr), 0.02 * weighted(rr));
  // The cheap output gate gets pushed harder than the expensive leaves,
  // relative to the plain area objective.
  SizingSpec area_spec = spec;
  area_spec.objective = Objective::min_area();
  const SizingResult ra = Sizer(c, area_spec).run(opts(Method::kReducedSpace));
  double g_w = 0.0;
  double g_a = 0.0;
  for (NodeId id : c.topo_order()) {
    if (c.node(id).kind == NodeKind::kGate && c.node(id).name == "G") {
      g_w = rr.speed[static_cast<std::size_t>(id)];
      g_a = ra.speed[static_cast<std::size_t>(id)];
    }
  }
  EXPECT_GE(g_w, g_a - 0.02);
}

TEST(SizerValidation, WeightedObjectiveNeedsMatchingWeights) {
  const Circuit c = netlist::make_tree_circuit();
  SizingSpec spec;
  spec.objective = Objective::min_weighted({1.0, 2.0});  // wrong size
  EXPECT_THROW(Sizer(c, spec), std::invalid_argument);
}

TEST(SizerValidation, RejectsUnfinalizedAndBadSpecs) {
  netlist::Circuit open_circuit(netlist::CellLibrary::standard());
  open_circuit.add_input("a");
  SizingSpec spec;
  EXPECT_THROW(Sizer(open_circuit, spec), std::invalid_argument);

  const Circuit c = netlist::make_tree_circuit();
  SizingSpec bad;
  bad.max_speed = 0.5;
  EXPECT_THROW(Sizer(c, bad), std::invalid_argument);

  SizingSpec sigma_unconstrained;
  sigma_unconstrained.objective = Objective::min_sigma();
  EXPECT_THROW(Sizer(c, sigma_unconstrained), std::invalid_argument);
}

TEST(SizerYield, MuPlus3SigmaSizingMeetsDeadlineInMonteCarlo) {
  // The paper's yield claim: constraining mu+3sigma <= D should give ~99.8%
  // of circuits meeting D (under the model's independence assumption; the
  // tree has none reconverging, so Monte Carlo should agree closely).
  const Circuit c = netlist::make_tree_circuit();
  SizingSpec spec;
  spec.objective = Objective::min_area();
  // A deadline that is feasible for the mu+3sigma constraint (>= the best
  // achievable mu+3sigma) yet binding for the mean-only constraint (< the
  // slowest sizing's mean), so both runs below are constrained.
  const ssta::DelayCalculator range_calc(c, spec.sigma_model);
  std::vector<double> s3(static_cast<std::size_t>(c.num_nodes()), spec.max_speed);
  const double m3_min = ssta::run_ssta(range_calc, s3).circuit_delay.quantile_offset(3.0);
  std::fill(s3.begin(), s3.end(), 1.0);
  const double mu_max = ssta::run_ssta(range_calc, s3).circuit_delay.mu;
  ASSERT_LT(m3_min, mu_max);
  const double deadline = 0.5 * (m3_min + mu_max);
  spec.delay_constraint = DelayConstraint::at_most(deadline, 3.0);
  const SizingResult r = Sizer(c, spec).run(opts(Method::kFullSpace));
  ASSERT_TRUE(r.converged) << r.status;

  const ssta::DelayCalculator calc(c, spec.sigma_model);
  ssta::MonteCarloOptions mc;
  mc.num_samples = 20000;
  mc.seed = 99;
  const ssta::MonteCarloResult sim =
      ssta::run_monte_carlo(c, calc.all_delays(r.speed), mc);
  EXPECT_GT(sim.yield(deadline), 0.990);

  // Whereas constraining only the mean leaves yield near 50%.
  SizingSpec mean_only = spec;
  mean_only.delay_constraint = DelayConstraint::at_most(deadline, 0.0);
  const SizingResult r0 = Sizer(c, mean_only).run(opts(Method::kFullSpace));
  ASSERT_TRUE(r0.converged);
  const ssta::MonteCarloResult sim0 =
      ssta::run_monte_carlo(c, calc.all_delays(r0.speed), mc);
  EXPECT_LT(sim0.yield(deadline), 0.65);
  EXPECT_GT(sim0.yield(deadline), 0.35);
}

// The Table 1 reduced-space rows (bench/table1_benchmarks) on the two large
// circuits. With a descent direction on the free variables most line
// searches accept their first trial, so objective evaluations stay within a
// small multiple of the iterations. The counts repeat exactly, which makes
// this a timing-free tripwire against the line search degrading into
// backtracking again (it once took ~10 trials per iteration on k2).
class SizerTable1Reduced : public ::testing::TestWithParam<const char*> {};

TEST_P(SizerTable1Reduced, RowsConvergeWithFewTrialsPerIteration) {
  const Circuit c = netlist::make_mcnc_like(GetParam());
  SizingSpec spec;
  const ssta::DelayCalculator calc(c, spec.sigma_model);
  std::vector<double> s(static_cast<std::size_t>(c.num_nodes()), spec.max_speed);
  const double mu_fast = ssta::run_ssta(calc, s).circuit_delay.mu;
  std::fill(s.begin(), s.end(), 1.0);
  const double mu_slow = ssta::run_ssta(calc, s).circuit_delay.mu;
  const double bound = mu_fast + 0.45 * (mu_slow - mu_fast);

  for (const bool constrained : {false, true}) {
    for (const double k : {0.0, 1.0, 3.0}) {
      if (constrained) {
        spec.objective = Objective::min_area();
        spec.delay_constraint = DelayConstraint::at_most(bound, k);
      } else {
        spec.objective = Objective::min_delay(k);
        spec.delay_constraint.reset();
      }
      const std::string row = spec.objective.description() +
                              (constrained ? " s.t. " + spec.delay_constraint->description() : "");
      const SizingResult r = Sizer(c, spec).run(opts(Method::kReducedSpace));
      ASSERT_TRUE(r.converged) << row << ": " << r.status;
      EXPECT_GT(r.evaluations, 0) << row;
      EXPECT_LE(r.evaluations, 3 * r.iterations)
          << row << ": " << r.evaluations << " evaluations in " << r.iterations << " iterations";
      if (constrained && k == 0.0 && std::string(GetParam()) == "k2") {
        EXPECT_NEAR(r.sum_speed, 1705.5, 1e-3 * 1705.5) << row;  // EXPERIMENTS.md E1
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LargeCircuits, SizerTable1Reduced, ::testing::Values("apex1", "k2"));

}  // namespace
}  // namespace statsize::core
