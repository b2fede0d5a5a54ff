// Tests for the timing engines: statistical STA against closed forms and
// Monte Carlo, the deterministic corner baseline, and criticality.

#include "ssta/ssta.h"

#include "netlist/generators.h"
#include "ssta/monte_carlo.h"

#include <cmath>
#include <ostream>

#include <gtest/gtest.h>

namespace statsize::ssta {
namespace {

using netlist::Circuit;
using netlist::make_balanced_tree;
using netlist::make_chain;
using netlist::make_mcnc_like;
using netlist::make_random_dag;
using netlist::make_tree_circuit;
using netlist::NodeId;
using stat::NormalRV;

std::vector<double> unit_speed(const Circuit& c) {
  return std::vector<double>(static_cast<std::size_t>(c.num_nodes()), 1.0);
}

TEST(DelayModel, ChainGateDelayMatchesEq14) {
  // INV chain: every interior INV drives one INV pin (c_in * S) plus wire.
  const Circuit c = make_chain(3);
  const netlist::CellType& inv = c.library().cell(c.library().find("INV"));
  DelayCalculator calc(c, SigmaModel{0.25, 0.0});
  const std::vector<double> speed = unit_speed(c);

  const NodeId g0 = c.topo_order()[1];  // first gate after the PI
  const double load = 0.1 + inv.c_in * 1.0;  // wire + next INV pin at S=1
  EXPECT_NEAR(calc.mean_delay(g0, speed), inv.t_int + inv.c * load, 1e-12);

  const NormalRV d = calc.delay(g0, speed);
  EXPECT_NEAR(d.sigma(), 0.25 * d.mu, 1e-12);
}

TEST(DelayModel, SpeedingUpGateReducesItsDelayButLoadsDrivers) {
  const Circuit c = make_chain(3);
  DelayCalculator calc(c);
  std::vector<double> speed = unit_speed(c);
  const NodeId g0 = c.topo_order()[1];
  const NodeId g1 = c.topo_order()[2];

  const double d0_before = calc.mean_delay(g0, speed);
  const double d1_before = calc.mean_delay(g1, speed);
  speed[static_cast<std::size_t>(g1)] = 3.0;
  EXPECT_GT(calc.mean_delay(g0, speed), d0_before);  // g0 now drives a bigger pin
  EXPECT_LT(calc.mean_delay(g1, speed), d1_before);  // g1 itself got faster
}

TEST(DelayModel, TotalSpeedAndAreaCountGatesOnly) {
  const Circuit c = make_tree_circuit();
  std::vector<double> speed(static_cast<std::size_t>(c.num_nodes()), 2.0);
  EXPECT_DOUBLE_EQ(DelayCalculator::total_speed(c, speed), 14.0);  // 7 gates * 2
  const double nand2_area = c.library().cell(c.library().find("NAND2")).area;
  EXPECT_DOUBLE_EQ(DelayCalculator::total_area(c, speed), 7 * 2.0 * nand2_area);
}

TEST(Ssta, ChainAccumulatesMeanAndVariance) {
  // On a chain there is no max operation: mu and var just add (eq. 4).
  const Circuit c = make_chain(8);
  std::vector<NormalRV> delays(static_cast<std::size_t>(c.num_nodes()));
  double want_mu = 0.0;
  double want_var = 0.0;
  int k = 1;
  for (NodeId id : c.topo_order()) {
    if (c.node(id).kind != netlist::NodeKind::kGate) continue;
    delays[static_cast<std::size_t>(id)] = {0.5 + 0.1 * k, 0.01 * k};
    want_mu += 0.5 + 0.1 * k;
    want_var += 0.01 * k;
    ++k;
  }
  const TimingReport r = run_ssta(c, delays);
  EXPECT_NEAR(r.circuit_delay.mu, want_mu, 1e-12);
  EXPECT_NEAR(r.circuit_delay.var, want_var, 1e-12);
}

TEST(Ssta, InputArrivalShiftsOutput) {
  const Circuit c = make_chain(4);
  DelayCalculator calc(c);
  const auto delays = calc.all_delays(unit_speed(c));
  const TimingReport base = run_ssta(c, delays);
  const TimingReport shifted = run_ssta(c, delays, NormalRV{2.0, 0.3});
  EXPECT_NEAR(shifted.circuit_delay.mu, base.circuit_delay.mu + 2.0, 1e-10);
  EXPECT_NEAR(shifted.circuit_delay.var, base.circuit_delay.var + 0.3, 1e-10);
}

TEST(Ssta, ZeroSigmaReducesToDeterministicSta) {
  const Circuit c = make_mcnc_like("apex2");
  DelayCalculator calc(c, SigmaModel{0.0, 0.0});
  const auto delays = calc.all_delays(unit_speed(c));
  const TimingReport ssta = run_ssta(c, delays);
  const StaReport sta = run_sta(c, delays, Corner::kTypical);
  EXPECT_NEAR(ssta.circuit_delay.mu, sta.circuit_delay, 1e-9);
  EXPECT_NEAR(ssta.circuit_delay.var, 0.0, 1e-12);
}

TEST(Ssta, CornersBracketTypical) {
  const Circuit c = make_tree_circuit();
  DelayCalculator calc(c);
  const auto delays = calc.all_delays(unit_speed(c));
  const double best = run_sta(c, delays, Corner::kBest).circuit_delay;
  const double typ = run_sta(c, delays, Corner::kTypical).circuit_delay;
  const double worst = run_sta(c, delays, Corner::kWorst).circuit_delay;
  EXPECT_LT(best, typ);
  EXPECT_LT(typ, worst);
}

TEST(Ssta, WorstCaseCornerIsPessimisticVsStatistical) {
  // The paper's motivation (sec. 1): corner analysis overstates uncertainty;
  // the statistical mu+3sigma is tighter than the all-worst-case corner.
  const Circuit c = make_mcnc_like("apex2");
  DelayCalculator calc(c);
  const auto delays = calc.all_delays(unit_speed(c));
  const TimingReport ssta = run_ssta(c, delays);
  const double worst = run_sta(c, delays, Corner::kWorst).circuit_delay;
  EXPECT_LT(ssta.circuit_delay.quantile_offset(3.0), worst);
}

TEST(Ssta, CircuitSigmaShrinksRelativeToElementSigma) {
  // Key claim from [1]/[2] restated in sec. 1: circuit-level relative
  // uncertainty is much smaller than element-level (25%) uncertainty.
  const Circuit c = make_mcnc_like("apex1");
  DelayCalculator calc(c, SigmaModel{0.25, 0.0});
  const TimingReport r = run_ssta(calc, unit_speed(c));
  EXPECT_LT(r.circuit_delay.sigma() / r.circuit_delay.mu, 0.15);
}

TEST(Ssta, RejectsMisSizedDelayVector) {
  const Circuit c = make_chain(2);
  std::vector<NormalRV> wrong(static_cast<std::size_t>(c.num_nodes()) + 1);
  EXPECT_THROW(run_ssta(c, wrong), std::invalid_argument);
  EXPECT_THROW(run_sta(c, wrong, Corner::kTypical), std::invalid_argument);
}

TEST(DelayModel, AllDelaysRejectsMisSizedSpeedVector) {
  const Circuit c = make_tree_circuit();
  DelayCalculator calc(c);
  EXPECT_THROW(calc.all_delays({}), std::invalid_argument);
  std::vector<double> longer = unit_speed(c);
  longer.push_back(1.0);
  EXPECT_THROW(calc.all_delays(longer), std::invalid_argument);
}

TEST(Ssta, RejectsMisSizedInputArrivalVector) {
  // Regression: a short per-input schedule used to index past its end (one
  // slot per primary input is consumed in topological input order).
  const Circuit c = make_tree_circuit();
  ASSERT_GT(c.num_inputs(), 1);
  DelayCalculator calc(c);
  const auto delays = calc.all_delays(unit_speed(c));
  const std::vector<NormalRV> shorter(static_cast<std::size_t>(c.num_inputs()) - 1);
  EXPECT_THROW(run_ssta(c, delays, shorter), std::invalid_argument);
  const std::vector<NormalRV> longer(static_cast<std::size_t>(c.num_inputs()) + 1);
  EXPECT_THROW(run_ssta(c, delays, longer), std::invalid_argument);
  const std::vector<NormalRV> exact(static_cast<std::size_t>(c.num_inputs()));
  EXPECT_NO_THROW(run_ssta(c, delays, exact));
}

// --- SSTA vs Monte Carlo on whole circuits (parameterized) -----------------

struct McCase {
  const char* kind;
  int size;
  double mu_tol;     ///< relative tolerance on the mean
  double sigma_tol;  ///< relative tolerance on the standard deviation
};

// A stable case name ("dag 150"): gtest would otherwise print the raw bytes
// of the struct, pointer included, so names changed between builds.
void PrintTo(const McCase& c, std::ostream* os) { *os << c.kind << ' ' << c.size; }

class SstaVsMonteCarlo : public ::testing::TestWithParam<McCase> {};

TEST_P(SstaVsMonteCarlo, MomentsAgreeWithinTolerance) {
  const McCase& p = GetParam();
  Circuit c = [&] {
    if (std::string(p.kind) == "chain") return make_chain(p.size);
    if (std::string(p.kind) == "tree") return make_balanced_tree(p.size);
    netlist::RandomDagParams rp;
    rp.num_gates = p.size;
    rp.seed = 99;
    return make_random_dag(rp);
  }();
  DelayCalculator calc(c, SigmaModel{0.25, 0.0});
  const auto delays = calc.all_delays(unit_speed(c));
  const TimingReport ssta = run_ssta(c, delays);

  MonteCarloOptions opt;
  opt.num_samples = 20000;
  opt.seed = 7;
  opt.truncate_negative_delays = false;  // match the analytic model exactly
  const MonteCarloResult mc = run_monte_carlo(c, delays, opt);

  // Chains involve no max at all and balanced trees have fully independent
  // max operands, so the analytic moments are near-exact there. The random
  // DAGs reconverge heavily (few PIs feeding hundreds of gates), which
  // violates the independence assumption of eq. 6: the analytic model then
  // overestimates the mean slightly and underestimates sigma — the effect the
  // paper's future-work section is about. Tolerances encode that hierarchy.
  EXPECT_NEAR(ssta.circuit_delay.mu, mc.mean, p.mu_tol * mc.mean);
  EXPECT_NEAR(ssta.circuit_delay.sigma(), mc.stddev, p.sigma_tol * mc.stddev + 0.02);
}

INSTANTIATE_TEST_SUITE_P(Circuits, SstaVsMonteCarlo,
                         ::testing::Values(McCase{"chain", 12, 0.01, 0.05},
                                           McCase{"tree", 4, 0.01, 0.05},
                                           McCase{"tree", 6, 0.01, 0.05},
                                           McCase{"dag", 60, 0.10, 0.70},
                                           McCase{"dag", 150, 0.10, 0.70},
                                           McCase{"dag", 400, 0.10, 0.70}));

TEST(MonteCarlo, StddevSurvivesLargeMeanAndTinySigma) {
  // Regression: the moments were folded as raw sums, stddev =
  // sqrt(sum2 / n - mean^2). At mean 1e4 and sigma 1e-5 the two terms agree
  // in every bit a double holds, so the MC stddev came out exactly 0 while
  // the samples spread as they should. Centred per-chunk moments keep it.
  const Circuit c = make_chain(4);
  std::vector<NormalRV> delays(static_cast<std::size_t>(c.num_nodes()));
  for (NodeId id : c.topo_order()) {
    if (c.node(id).kind == netlist::NodeKind::kGate) {
      delays[static_cast<std::size_t>(id)] = NormalRV::from_sigma(2500.0, 5e-6);
    }
  }
  const TimingReport ssta = run_ssta(c, delays);
  ASSERT_NEAR(ssta.circuit_delay.mu, 1e4, 1e-9);
  ASSERT_NEAR(ssta.circuit_delay.sigma(), 1e-5, 1e-12);

  MonteCarloOptions opt;
  opt.num_samples = 10000;
  opt.seed = 7;
  opt.truncate_negative_delays = false;
  const MonteCarloResult mc = run_monte_carlo(c, delays, opt);
  // Five standard errors of each estimate: sigma / sqrt(n) for the mean,
  // about sigma / sqrt(2 n) for the standard deviation.
  const double sigma = ssta.circuit_delay.sigma();
  EXPECT_NEAR(mc.mean, ssta.circuit_delay.mu, 5.0 * sigma / std::sqrt(10000.0));
  EXPECT_NEAR(mc.stddev, sigma, 5.0 * sigma / std::sqrt(20000.0));
}

TEST(MonteCarlo, QuantileAndYieldAreConsistent) {
  const Circuit c = make_tree_circuit();
  DelayCalculator calc(c);
  const auto delays = calc.all_delays(unit_speed(c));
  MonteCarloOptions opt;
  opt.num_samples = 5000;
  const MonteCarloResult mc = run_monte_carlo(c, delays, opt);
  const double q90 = mc.quantile(0.9);
  EXPECT_NEAR(mc.yield(q90), 0.9, 0.02);
  EXPECT_LE(mc.min, mc.mean);
  EXPECT_LE(mc.mean, mc.max);
  EXPECT_NEAR(mc.yield(mc.max), 1.0, 1e-12);
  EXPECT_LT(mc.yield(mc.min - 1.0), 0.01);
}

TEST(MonteCarlo, QuantileRejectsProbabilityOutsideUnitInterval) {
  // Regression: quantile(p) used to cast a negative scaled index straight to
  // size_t, turning a caller typo (p = -0.1) into a wild out-of-bounds read.
  const Circuit c = make_tree_circuit();
  DelayCalculator calc(c);
  const auto delays = calc.all_delays(unit_speed(c));
  MonteCarloOptions opt;
  opt.num_samples = 200;
  const MonteCarloResult mc = run_monte_carlo(c, delays, opt);
  EXPECT_THROW(mc.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW(mc.quantile(1.5), std::invalid_argument);
  EXPECT_THROW(mc.quantile(std::nan("")), std::invalid_argument);
  // The closed endpoints stay valid and bracket the sample range.
  EXPECT_EQ(mc.quantile(0.0), mc.min);
  EXPECT_EQ(mc.quantile(1.0), mc.max);
}

TEST(MonteCarlo, RejectsNonPositiveSampleCounts) {
  // Regression: num_samples = 0 reached samples.front()/.back() on an empty
  // vector (UB) and a divide-by-zero in criticality, and a negative count
  // wrapped through the size_t cast in the chunk partition into an absurd
  // allocation. Both entry points must reject with a named invalid_argument
  // before any trial math runs.
  const Circuit c = make_tree_circuit();
  DelayCalculator calc(c);
  const auto delays = calc.all_delays(unit_speed(c));
  MonteCarloOptions opt;
  for (const int bad : {0, -1, -20000}) {
    opt.num_samples = bad;
    EXPECT_THROW(run_monte_carlo(c, delays, opt), std::invalid_argument) << bad;
    EXPECT_THROW(monte_carlo_criticality(c, delays, opt), std::invalid_argument) << bad;
  }
  opt.num_samples = -20000;
  try {
    run_monte_carlo(c, delays, opt);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("run_monte_carlo"), std::string::npos) << what;
    EXPECT_NE(what.find("-20000"), std::string::npos) << what;
  }
  try {
    monte_carlo_criticality(c, delays, opt);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("monte_carlo_criticality"), std::string::npos);
  }
  // The smallest legal count still works end to end.
  opt.num_samples = 1;
  const MonteCarloResult one = run_monte_carlo(c, delays, opt);
  EXPECT_EQ(one.samples.size(), 1u);
  EXPECT_EQ(one.min, one.max);
}

TEST(MonteCarlo, SeedReproducibility) {
  const Circuit c = make_tree_circuit();
  DelayCalculator calc(c);
  const auto delays = calc.all_delays(unit_speed(c));
  MonteCarloOptions opt;
  opt.num_samples = 1000;
  opt.seed = 123;
  const MonteCarloResult a = run_monte_carlo(c, delays, opt);
  const MonteCarloResult b = run_monte_carlo(c, delays, opt);
  EXPECT_EQ(a.samples, b.samples);
}

TEST(MonteCarlo, CriticalityConcentratesOnOutputGate) {
  // In the tree, gate G is on every path: criticality 1. Leaves split.
  const Circuit c = make_tree_circuit();
  DelayCalculator calc(c);
  const auto delays = calc.all_delays(unit_speed(c));
  MonteCarloOptions opt;
  opt.num_samples = 4000;
  const auto crit = monte_carlo_criticality(c, delays, opt);

  const NodeId g = c.outputs().front();
  EXPECT_DOUBLE_EQ(crit[static_cast<std::size_t>(g)], 1.0);
  // The four leaf gates share criticality roughly equally (symmetric tree).
  double leaf_sum = 0.0;
  for (NodeId id : c.topo_order()) {
    const netlist::Node& n = c.node(id);
    if (n.kind == netlist::NodeKind::kGate && n.name.size() == 1 &&
        (n.name[0] == 'A' || n.name[0] == 'B' || n.name[0] == 'D' || n.name[0] == 'E')) {
      EXPECT_NEAR(crit[static_cast<std::size_t>(id)], 0.25, 0.07) << n.name;
      leaf_sum += crit[static_cast<std::size_t>(id)];
    }
  }
  EXPECT_NEAR(leaf_sum, 1.0, 1e-12);  // exactly one leaf per trial
}

}  // namespace
}  // namespace statsize::ssta
