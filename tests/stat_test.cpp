// Tests for the normal-distribution primitives and the analytic Clark max
// moments (paper eqs. 10, 12, 13).
//
// Closed-form anchors:
//  * iid operands N(m, s^2): mu_C = m + s/sqrt(pi), var_C = s^2 (1 - 1/pi).
//  * dominant operand (|muA - muB| >> theta): C == the larger operand.
// Statistical anchor: Monte Carlo estimates over an operand grid.
//
// The seeded streams (SplitMix64, NormalStream) are checked on fixed seeds:
// known SplitMix64 outputs, the normal stream's moments and tail masses
// against Phi, and stream independence. Statistical bounds are five
// standard errors of the estimate.

#include "stat/clark.h"
#include "stat/normal.h"
#include "stat/random.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace statsize::stat {
namespace {

constexpr double kPi = 3.14159265358979323846;

TEST(Normal, PdfKnownValues) {
  EXPECT_NEAR(normal_pdf(0.0), 1.0 / std::sqrt(2.0 * kPi), 1e-15);
  EXPECT_NEAR(normal_pdf(1.0), std::exp(-0.5) / std::sqrt(2.0 * kPi), 1e-15);
  EXPECT_NEAR(normal_pdf(-1.0), normal_pdf(1.0), 0.0);
}

TEST(Normal, CdfKnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-12);
  EXPECT_NEAR(normal_cdf(3.0), 0.9986501019683699, 1e-12);
  EXPECT_NEAR(normal_cdf(-3.0) + normal_cdf(3.0), 1.0, 1e-15);
}

TEST(Normal, CdfTailsAreAccurate) {
  // erfc-based evaluation keeps relative accuracy deep in the lower tail.
  EXPECT_NEAR(normal_cdf(-8.0) / 6.22096057427178e-16, 1.0, 1e-9);
  EXPECT_GT(normal_cdf(-37.0), 0.0);
  EXPECT_EQ(normal_cdf(40.0), 1.0);
}

TEST(Normal, QuantileInvertsCdf) {
  for (double p : {1e-9, 1e-4, 0.02, 0.2, 0.5, 0.7, 0.975, 0.9999, 1.0 - 1e-9}) {
    const double x = normal_quantile(p);
    EXPECT_NEAR(normal_cdf(x), p, 1e-12) << "p=" << p;
  }
}

TEST(Normal, QuantileKnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-14);
  EXPECT_NEAR(normal_quantile(0.8413447460685429), 1.0, 1e-10);
  EXPECT_NEAR(normal_quantile(0.9986501019683699), 3.0, 1e-9);
}

TEST(Normal, QuantileEdgeCases) {
  EXPECT_TRUE(std::isinf(normal_quantile(0.0)));
  EXPECT_TRUE(std::isinf(normal_quantile(1.0)));
  EXPECT_LT(normal_quantile(0.0), 0.0);
  EXPECT_GT(normal_quantile(1.0), 0.0);
}

TEST(NormalRV, AdditionMatchesEq4) {
  const NormalRV a{3.0, 4.0};
  const NormalRV b{5.0, 9.0};
  const NormalRV c = add(a, b);
  EXPECT_DOUBLE_EQ(c.mu, 8.0);
  EXPECT_DOUBLE_EQ(c.var, 13.0);
  EXPECT_DOUBLE_EQ(c.sigma(), std::sqrt(13.0));
}

TEST(NormalRV, QuantileOffsetYieldLevels) {
  // The paper's yield statement (sec. 4): mu -> 50%, mu+sigma -> 84.1%,
  // mu+3sigma -> 99.8%.
  const NormalRV d{100.0, 4.0};
  EXPECT_NEAR(d.cdf(d.quantile_offset(0.0)), 0.50, 1e-12);
  EXPECT_NEAR(d.cdf(d.quantile_offset(1.0)), 0.841, 5e-4);
  EXPECT_NEAR(d.cdf(d.quantile_offset(3.0)), 0.9987, 5e-4);
}

// ---------------------------------------------------------------------------
// Clark max: closed-form anchors.
// ---------------------------------------------------------------------------

TEST(ClarkMax, IidOperandsClosedForm) {
  for (double m : {-4.0, 0.0, 2.5, 100.0}) {
    for (double s : {0.1, 1.0, 3.0}) {
      const NormalRV a = NormalRV::from_sigma(m, s);
      const NormalRV c = clark_max(a, a);
      EXPECT_NEAR(c.mu, m + s / std::sqrt(kPi), 1e-10) << m << " " << s;
      EXPECT_NEAR(c.var, s * s * (1.0 - 1.0 / kPi), 1e-10) << m << " " << s;
    }
  }
}

TEST(ClarkMax, IsSymmetric) {
  const NormalRV a{1.0, 0.5};
  const NormalRV b{2.0, 2.0};
  const NormalRV ab = clark_max(a, b);
  const NormalRV ba = clark_max(b, a);
  EXPECT_NEAR(ab.mu, ba.mu, 1e-14);
  EXPECT_NEAR(ab.var, ba.var, 1e-14);
}

TEST(ClarkMax, DominantOperandWins) {
  const NormalRV a{100.0, 1.0};
  const NormalRV b{0.0, 1.0};
  const NormalRV c = clark_max(a, b);
  EXPECT_NEAR(c.mu, 100.0, 1e-12);
  EXPECT_NEAR(c.var, 1.0, 1e-12);
}

TEST(ClarkMax, MeanDominatesBothOperands) {
  // E[max(A,B)] >= max(E[A], E[B]) by Jensen applied to the convex max.
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> mu_d(-10.0, 10.0);
  std::uniform_real_distribution<double> s_d(0.05, 5.0);
  for (int i = 0; i < 200; ++i) {
    const NormalRV a = NormalRV::from_sigma(mu_d(rng), s_d(rng));
    const NormalRV b = NormalRV::from_sigma(mu_d(rng), s_d(rng));
    const NormalRV c = clark_max(a, b);
    EXPECT_GE(c.mu, std::max(a.mu, b.mu) - 1e-12);
    EXPECT_GE(c.var, -1e-12);
  }
}

TEST(ClarkMax, NoCancellationAtLargeMeans) {
  // mu ~ 1e6 with sigma ~ 1: the centered evaluation must keep full accuracy
  // (naive E[C^2]-mu^2 would lose ~12 digits here).
  const double big = 1e6;
  const NormalRV a = NormalRV::from_sigma(big, 1.0);
  const NormalRV c = clark_max(a, a);
  EXPECT_NEAR(c.mu - big, 1.0 / std::sqrt(kPi), 1e-9);
  EXPECT_NEAR(c.var, 1.0 - 1.0 / kPi, 1e-9);
}

TEST(ClarkMax, ShiftInvariance) {
  // max(A+d, B+d) = max(A,B)+d: mean shifts, variance unchanged.
  const NormalRV a{2.0, 1.5};
  const NormalRV b{3.0, 0.5};
  const NormalRV c0 = clark_max(a, b);
  const double d = 17.25;
  const NormalRV c1 = clark_max(add(a, d), add(b, d));
  EXPECT_NEAR(c1.mu, c0.mu + d, 1e-10);
  EXPECT_NEAR(c1.var, c0.var, 1e-10);
}

TEST(ClarkMax, DegenerateBothDeterministic) {
  const NormalRV a{3.0, 0.0};
  const NormalRV b{5.0, 0.0};
  const NormalRV c = clark_max(a, b);
  EXPECT_DOUBLE_EQ(c.mu, 5.0);
  EXPECT_DOUBLE_EQ(c.var, 0.0);
}

TEST(ClarkMax, DegenerateTieAveragesVariance) {
  const NormalRV a{3.0, 0.0};
  const NormalRV b{3.0, 0.0};
  const NormalRV c = clark_max(a, b);
  EXPECT_DOUBLE_EQ(c.mu, 3.0);
  EXPECT_DOUBLE_EQ(c.var, 0.0);
}

TEST(ClarkMax, OneDeterministicOperand) {
  // max(const 0, N(0,1)) is the rectified normal-ish mix; Clark still applies
  // since theta = 1 > 0. Known: mu = phi(0) = 1/sqrt(2 pi).
  const NormalRV a{0.0, 0.0};
  const NormalRV b{0.0, 1.0};
  const NormalRV c = clark_max(a, b);
  EXPECT_NEAR(c.mu, 1.0 / std::sqrt(2.0 * kPi), 1e-12);
  // var = (0+0)*0.5 + (1+0)*0.5 - mu^2 = 0.5 - 1/(2 pi)
  EXPECT_NEAR(c.var, 0.5 - 1.0 / (2.0 * kPi), 1e-12);
}

TEST(ClarkMax, FoldMatchesManualChain) {
  const std::vector<NormalRV> rvs = {{1.0, 0.2}, {1.5, 0.3}, {0.5, 0.1}, {1.4, 0.4}};
  const NormalRV manual =
      clark_max(clark_max(clark_max(rvs[0], rvs[1]), rvs[2]), rvs[3]);
  const NormalRV folded = clark_max_fold(rvs.data(), 4);
  EXPECT_DOUBLE_EQ(folded.mu, manual.mu);
  EXPECT_DOUBLE_EQ(folded.var, manual.var);
}

TEST(ClarkMax, FoldSingleElementIsIdentity) {
  const NormalRV a{2.0, 0.7};
  const NormalRV c = clark_max_fold(&a, 1);
  EXPECT_DOUBLE_EQ(c.mu, a.mu);
  EXPECT_DOUBLE_EQ(c.var, a.var);
}

// ---------------------------------------------------------------------------
// Monte Carlo validation sweep (parameterized): analytic moments must agree
// with sampled moments of max(A, B) to MC accuracy. This is experiment E4 in
// miniature, pinned as a regression test.
// ---------------------------------------------------------------------------

struct OperandCase {
  double mu_a, sigma_a, mu_b, sigma_b;
};

class ClarkVsMonteCarlo : public ::testing::TestWithParam<OperandCase> {};

TEST_P(ClarkVsMonteCarlo, MomentsAgree) {
  const OperandCase& p = GetParam();
  const NormalRV a = NormalRV::from_sigma(p.mu_a, p.sigma_a);
  const NormalRV b = NormalRV::from_sigma(p.mu_b, p.sigma_b);
  const NormalRV c = clark_max(a, b);

  std::mt19937_64 rng(12345);
  std::normal_distribution<double> da(p.mu_a, p.sigma_a);
  std::normal_distribution<double> db(p.mu_b, p.sigma_b);
  const int n = 400000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double m = std::max(da(rng), db(rng));
    sum += m;
    sum2 += m * m;
  }
  const double mc_mu = sum / n;
  const double mc_var = sum2 / n - mc_mu * mc_mu;
  const double sigma_max = std::max(p.sigma_a, p.sigma_b);
  // MC standard error of the mean ~ sigma/sqrt(n); allow 5 standard errors.
  EXPECT_NEAR(c.mu, mc_mu, 5.0 * sigma_max / std::sqrt(double(n)));
  EXPECT_NEAR(c.var, mc_var, 0.02 * sigma_max * sigma_max + 5e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ClarkVsMonteCarlo,
    ::testing::Values(OperandCase{0.0, 1.0, 0.0, 1.0},     // iid
                      OperandCase{0.0, 1.0, 0.5, 1.0},     // small gap
                      OperandCase{0.0, 1.0, 3.0, 1.0},     // large gap
                      OperandCase{0.0, 0.2, 0.0, 2.0},     // very different sigmas
                      OperandCase{5.0, 0.5, 4.0, 1.5},     // mixed
                      OperandCase{10.0, 2.0, 10.0, 0.1},   // tie w/ asym sigma
                      OperandCase{-3.0, 1.0, 2.0, 0.3}));  // dominated

// Variance of the max never exceeds the sum of operand variances, and the
// mean never exceeds max(muA, muB) + theta (a crude union-type bound that
// catches sign errors).
class ClarkBounds : public ::testing::TestWithParam<int> {};

TEST_P(ClarkBounds, RandomizedInvariants) {
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> mu_d(-50.0, 50.0);
  std::uniform_real_distribution<double> s_d(0.01, 10.0);
  for (int i = 0; i < 500; ++i) {
    const NormalRV a = NormalRV::from_sigma(mu_d(rng), s_d(rng));
    const NormalRV b = NormalRV::from_sigma(mu_d(rng), s_d(rng));
    const NormalRV c = clark_max(a, b);
    const double theta = std::sqrt(a.var + b.var);
    EXPECT_LE(c.mu, std::max(a.mu, b.mu) + theta + 1e-10);
    EXPECT_LE(c.var, a.var + b.var + 1e-10);
    EXPECT_GE(c.var, 0.0);
    EXPECT_TRUE(std::isfinite(c.mu));
    EXPECT_TRUE(std::isfinite(c.var));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClarkBounds, ::testing::Range(1, 9));

// The full-space sizing formulation lower-bounds fold-variance variables by
// 0.5 (1 - 1/pi) * min(varA, varB) (core/full_space.cpp). Verify the
// underlying property Var(max) >= (1 - 1/pi) * min(varA, varB) empirically
// over a wide operand range — the symmetric case attains it.
class ClarkMaxShrinkBound : public ::testing::TestWithParam<int> {};

TEST_P(ClarkMaxShrinkBound, VarianceShrinkIsBounded) {
  std::mt19937 rng(GetParam() * 31 + 5);
  std::uniform_real_distribution<double> mu_d(-30.0, 30.0);
  std::uniform_real_distribution<double> v_d(1e-3, 30.0);
  const double shrink = 1.0 - 1.0 / kPi;
  for (int i = 0; i < 2000; ++i) {
    const NormalRV a{mu_d(rng), v_d(rng)};
    const NormalRV b{mu_d(rng), v_d(rng)};
    const NormalRV c = clark_max(a, b);
    ASSERT_GE(c.var, shrink * std::min(a.var, b.var) - 1e-12)
        << "a=(" << a.mu << "," << a.var << ") b=(" << b.mu << "," << b.var << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClarkMaxShrinkBound, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// Seeded streams: SplitMix64 and the Ziggurat NormalStream.
// ---------------------------------------------------------------------------

TEST(SplitMix64, MatchesReferenceOutputs) {
  // The first outputs of Vigna's reference splitmix64.c from state 0.
  SplitMix64 rng(0);
  EXPECT_EQ(rng.next(), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(rng.next(), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(rng.next(), 0x06C45D188009454FULL);
  // uniform01 is the top 53 bits of the next output.
  SplitMix64 a(99);
  SplitMix64 b(99);
  for (int k = 0; k < 100; ++k) {
    const double u = a.uniform01();
    EXPECT_EQ(u, static_cast<double>(b.next() >> 11) * 0x1.0p-53);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(SplitMix64, StreamSeedIsTheStreamthOutput) {
  // stream_seed(seed, i) jumps straight to output i of SplitMix64(seed): the
  // (seed, chunk) contract Monte Carlo's chunk streams are built on.
  for (const std::uint64_t seed : {0ULL, 7ULL, 0xFFFFFFFFFFFFFFFFULL}) {
    SplitMix64 rng(seed);
    for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_EQ(stream_seed(seed, i), rng.next());
  }
}

/// Sums of z^1..z^4 and tail counts over `n` draws of NormalStream(seed).
struct DrawSummary {
  double s1 = 0.0, s2 = 0.0, s3 = 0.0, s4 = 0.0;
  long beyond3 = 0, beyond4 = 0;
  long tail_pos = 0, tail_neg = 0;  ///< draws beyond the Ziggurat's r
  long positive = 0;
};

DrawSummary summarize(std::uint64_t seed, long n) {
  NormalStream normal(seed);
  DrawSummary d;
  for (long k = 0; k < n; ++k) {
    const double z = normal();
    const double z2 = z * z;
    d.s1 += z;
    d.s2 += z2;
    d.s3 += z2 * z;
    d.s4 += z2 * z2;
    d.beyond3 += std::abs(z) > 3.0;
    d.beyond4 += std::abs(z) > 4.0;
    d.tail_pos += z > NormalStream::kTailStart;
    d.tail_neg += z < -NormalStream::kTailStart;
    d.positive += z > 0.0;
  }
  return d;
}

/// Expected count of |Z| > k in n draws, and five standard errors of it.
void expect_tail_count(long count, long n, double k) {
  const double p = 2.0 * normal_cdf(-k);
  const double expected = p * static_cast<double>(n);
  EXPECT_NEAR(static_cast<double>(count), expected, 5.0 * std::sqrt(expected * (1.0 - p)))
      << "|z| > " << k;
}

TEST(NormalStream, FirstFourMomentsMatchStandardNormal) {
  constexpr long kN = 2000000;
  for (const std::uint64_t seed : {1ULL, 20260705ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const DrawSummary d = summarize(seed, kN);
    const double n = static_cast<double>(kN);
    // Standard errors of the raw-moment estimates: sqrt(Var(Z^k) / n) with
    // Var(Z) = 1, Var(Z^2) = 2, Var(Z^3) = 15, Var(Z^4) = 96.
    EXPECT_NEAR(d.s1 / n, 0.0, 5.0 * std::sqrt(1.0 / n));
    EXPECT_NEAR(d.s2 / n, 1.0, 5.0 * std::sqrt(2.0 / n));
    EXPECT_NEAR(d.s3 / n, 0.0, 5.0 * std::sqrt(15.0 / n));
    EXPECT_NEAR(d.s4 / n, 3.0, 5.0 * std::sqrt(96.0 / n));
  }
}

TEST(NormalStream, TailMassMatchesNormalCdf) {
  constexpr long kN = 4000000;
  for (const std::uint64_t seed : {3ULL, 11ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const DrawSummary d = summarize(seed, kN);
    expect_tail_count(d.beyond3, kN, 3.0);
    expect_tail_count(d.beyond4, kN, 4.0);
  }
}

TEST(NormalStream, TailBranchRunsAndSignsAreSymmetric) {
  // |z| > r is reachable only through the exact exponential tail, so these
  // counts pin that branch: it runs, at the rate 2 Phi(-r), on both sides.
  constexpr long kN = 4000000;
  const DrawSummary d = summarize(5, kN);
  const long tail = d.tail_pos + d.tail_neg;
  EXPECT_GT(d.tail_pos, 0);
  EXPECT_GT(d.tail_neg, 0);
  expect_tail_count(tail, kN, NormalStream::kTailStart);
  // Each tail draw lands on either side with probability 1/2.
  EXPECT_NEAR(static_cast<double>(d.tail_pos - d.tail_neg), 0.0,
              5.0 * std::sqrt(static_cast<double>(tail)));
  EXPECT_NEAR(static_cast<double>(d.positive) / kN, 0.5, 5.0 * 0.5 / std::sqrt(double(kN)));
}

TEST(NormalStream, SameSeedSameSequence) {
  NormalStream a(42);
  NormalStream b(42);
  NormalStream c(43);
  int differ = 0;
  for (int k = 0; k < 100000; ++k) {
    const double x = a();
    ASSERT_EQ(x, b()) << "draw " << k;
    differ += x != c();
  }
  EXPECT_GT(differ, 99000);
}

TEST(NormalStream, AdjacentChunkStreamsAreUncorrelated) {
  // Monte Carlo chunk i draws from NormalStream(stream_seed(seed, i)); paired
  // draws of neighbouring chunks must show no correlation.
  constexpr int kChunks = 16;
  constexpr int kDraws = 65536;
  std::vector<std::vector<double>> draws(kChunks, std::vector<double>(kDraws));
  for (int c = 0; c < kChunks; ++c) {
    NormalStream normal(stream_seed(1, static_cast<std::uint64_t>(c)));
    for (double& z : draws[static_cast<std::size_t>(c)]) z = normal();
  }
  for (std::size_t c = 0; c + 1 < kChunks; ++c) {
    double sxy = 0.0;
    for (int k = 0; k < kDraws; ++k) {
      sxy += draws[c][static_cast<std::size_t>(k)] * draws[c + 1][static_cast<std::size_t>(k)];
    }
    // E[XY] = 0 with standard error 1 / sqrt(n) for independent N(0, 1).
    EXPECT_NEAR(sxy / kDraws, 0.0, 5.0 / std::sqrt(double(kDraws))) << "chunks " << c;
  }
}

}  // namespace
}  // namespace statsize::stat
