// Validates the fast aggregate simulation (ldp/fast_sim.h) against the exact
// per-user pipeline: identical estimator mean and variance across a
// parameter sweep.

#include "ldp/fast_sim.h"

#include <gtest/gtest.h>

#include <cmath>

#include "ldp/estimator.h"
#include "ldp/grr.h"
#include "ldp/local_hash.h"
#include "util/stats.h"

namespace shuffledp {
namespace ldp {
namespace {

struct AgreementCase {
  double eps;
  uint64_t d;
  uint64_t d_prime;  // 0 => GRR
  uint64_t n_fake;
};

class FastSimAgreement : public ::testing::TestWithParam<AgreementCase> {};

TEST_P(FastSimAgreement, MeanAndVarianceMatchExactPipeline) {
  const auto param = GetParam();
  const uint64_t n = 4000;
  std::unique_ptr<ScalarFrequencyOracle> oracle;
  if (param.d_prime == 0) {
    oracle = std::make_unique<Grr>(param.eps, param.d);
  } else {
    oracle = std::make_unique<LocalHash>(param.eps, param.d, param.d_prime);
  }
  // Skewed data: value 0 at 40%, rest spread.
  std::vector<uint64_t> values(n);
  std::vector<uint64_t> value_counts(param.d, 0);
  for (uint64_t i = 0; i < n; ++i) {
    values[i] = (i < 2 * n / 5) ? 0 : 1 + (i % (param.d - 1));
    ++value_counts[values[i]];
  }

  Rng rng_exact(101), rng_fast(202);
  RunningStat exact_est, fast_est;
  const int kTrials = 120;
  for (int t = 0; t < kTrials; ++t) {
    // Exact pipeline.
    std::vector<LdpReport> reports;
    reports.reserve(n + param.n_fake);
    for (uint64_t i = 0; i < n; ++i) {
      reports.push_back(oracle->Encode(values[i], &rng_exact));
    }
    for (uint64_t i = 0; i < param.n_fake; ++i) {
      reports.push_back(oracle->MakeFakeReport(&rng_exact));
    }
    std::vector<uint64_t> supports(1, 0);
    AccumulateSupportCounts(*oracle, reports.data(), reports.size(), 0, 1,
                            supports.data(), nullptr);
    exact_est.Add(CalibrateEstimates(*oracle, supports, n, param.n_fake)[0]);

    // Fast simulation.
    auto fast = FastSimulateEstimateAt(*oracle, value_counts, n,
                                       param.n_fake, {0}, &rng_fast);
    fast_est.Add(fast[0]);
  }

  // Same mean (both unbiased at 0.4)...
  EXPECT_NEAR(exact_est.mean(), 0.4, 6 * exact_est.stderr_mean());
  EXPECT_NEAR(fast_est.mean(), 0.4, 6 * fast_est.stderr_mean());
  // ...and matching variance within sampling tolerance (variance of the
  // sample variance over kTrials is ~ 2 var²/kTrials → sd ~ 13% of var).
  double ratio = fast_est.variance() / exact_est.variance();
  EXPECT_GT(ratio, 0.55) << "fast path underestimates variance";
  EXPECT_LT(ratio, 1.8) << "fast path overestimates variance";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FastSimAgreement,
    ::testing::Values(AgreementCase{1.0, 8, 0, 0},      // GRR, no fakes
                      AgreementCase{1.0, 8, 0, 2000},   // GRR + fakes
                      AgreementCase{2.0, 64, 0, 0},     // GRR larger d
                      AgreementCase{2.0, 64, 8, 0},     // LH
                      AgreementCase{2.0, 64, 8, 2000},  // LH + fakes
                      AgreementCase{0.5, 16, 4, 0}));   // low-eps LH

TEST(FastSimTest, SupportsAreWithinRange) {
  Rng rng(1);
  SupportProbs probs{0.7, 0.1, 0.25};
  std::vector<uint64_t> counts = {100, 200, 700};
  auto supports = FastSimulateSupports(probs, counts, 1000, 500, &rng);
  ASSERT_EQ(supports.size(), 3u);
  for (uint64_t s : supports) EXPECT_LE(s, 1500u);
}

TEST(FastSimTest, UnaryColumnsMatchMoments) {
  Rng rng(2);
  const uint64_t n = 100000;
  const double p = 0.8, q = 0.2;
  std::vector<uint64_t> counts = {30000, 70000};
  RunningStat col0;
  for (int t = 0; t < 300; ++t) {
    auto cols = FastSimulateUnaryColumns(p, q, counts, n, {0}, &rng);
    col0.Add(static_cast<double>(cols[0]));
  }
  double mean = 30000 * p + 70000 * q;
  EXPECT_NEAR(col0.mean(), mean, 0.01 * mean);
}

TEST(FastSimTest, AueColumnsNeverBelowTrueCount) {
  Rng rng(3);
  std::vector<uint64_t> counts = {500, 1500};
  for (int t = 0; t < 50; ++t) {
    auto cols = FastSimulateAueColumns(0.05, counts, 2000, {0, 1}, &rng);
    EXPECT_GE(cols[0], 500u);
    EXPECT_GE(cols[1], 1500u);
  }
}

}  // namespace
}  // namespace ldp
}  // namespace shuffledp
