#include "ldp/estimator.h"

#include <gtest/gtest.h>

#include <memory>

#include "ldp/grr.h"
#include "ldp/hadamard.h"
#include "ldp/local_hash.h"
#include "util/stats.h"

namespace shuffledp {
namespace ldp {
namespace {

TEST(SupportCountsTest, SerialAndParallelAgree) {
  const uint64_t d = 30, n = 20000;
  Grr grr(1.0, d);
  Rng rng(1);
  std::vector<LdpReport> reports(n);
  for (uint64_t i = 0; i < n; ++i) reports[i] = grr.Encode(i % d, &rng);

  auto serial = SupportCountsFullDomain(grr, reports, nullptr);
  ThreadPool pool(4);
  auto parallel = SupportCountsFullDomain(grr, reports, &pool);
  EXPECT_EQ(serial, parallel);
}

TEST(SupportCountsTest, SubsetMatchesFullDomain) {
  const uint64_t d = 10, n = 2000;
  Grr grr(1.0, d);
  Rng rng(2);
  std::vector<LdpReport> reports(n);
  for (uint64_t i = 0; i < n; ++i) reports[i] = grr.Encode(i % d, &rng);
  auto full = SupportCountsFullDomain(grr, reports);
  std::vector<uint64_t> subset(5, 0);  // values [3, 8)
  AccumulateSupportCounts(grr, reports.data(), reports.size(), 3, 8,
                          subset.data(), nullptr);
  EXPECT_EQ(subset,
            std::vector<uint64_t>(full.begin() + 3, full.begin() + 8));
}

TEST(SupportCountsTest, GrrSupportsSumToN) {
  // For GRR each report supports exactly one value.
  const uint64_t d = 10, n = 5000;
  Grr grr(1.0, d);
  Rng rng(3);
  std::vector<LdpReport> reports(n);
  for (uint64_t i = 0; i < n; ++i) reports[i] = grr.Encode(i % d, &rng);
  auto counts = SupportCountsFullDomain(grr, reports);
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  EXPECT_EQ(total, n);
}

// The one aggregation path must equal the base-class per-pair loop for
// every oracle, pool size and value range. Counts start non-zero to pin
// the accumulate-never-assign contract; the interior and single-value
// ranges see GRR reports lying outside the slice.
TEST(AccumulateSupportCountsTest, MatchesPerPairReferenceMatrix) {
  const uint64_t d = 97, n = 3000;
  std::vector<std::unique_ptr<ScalarFrequencyOracle>> oracles;
  oracles.push_back(std::make_unique<Grr>(2.0, d));
  oracles.push_back(std::make_unique<LocalHash>(2.0, d, 16, "SOLH"));
  oracles.push_back(std::make_unique<LocalHash>(2.0, d, 19, "SOLH"));
  oracles.push_back(std::make_unique<HadamardResponse>(2.0, d));
  ThreadPool pool1(1), pool3(3), pool4(4);
  const std::vector<ThreadPool*> pools = {nullptr, &pool1, &pool3, &pool4};
  struct Range {
    const char* name;
    uint64_t lo, hi;
    bool empty_batch;
  };
  const std::vector<Range> ranges = {{"full", 0, d, false},
                                     {"interior", 23, 71, false},
                                     {"single", 40, 41, false},
                                     {"empty-batch", 0, d, true}};

  for (const auto& oracle : oracles) {
    Rng rng(9);
    std::vector<LdpReport> reports(n);
    for (uint64_t i = 0; i < n; ++i) {
      reports[i] = oracle->Encode(i % 3 == 0 ? 40 : i % d, &rng);
    }
    for (const Range& range : ranges) {
      const size_t count = range.empty_batch ? 0 : reports.size();
      std::vector<uint64_t> expected(range.hi - range.lo);
      for (size_t i = 0; i < expected.size(); ++i) expected[i] = 7 * i;
      std::vector<uint64_t> initial = expected;
      oracle->ScalarFrequencyOracle::AccumulateSupports(
          reports.data(), count, range.lo, range.hi, expected.data());
      for (ThreadPool* pool : pools) {
        std::vector<uint64_t> counts = initial;
        AccumulateSupportCounts(*oracle, reports.data(), count, range.lo,
                                range.hi, counts.data(), pool);
        EXPECT_EQ(counts, expected)
            << oracle->Name() << " d'=" << oracle->report_domain() << " "
            << range.name << " threads="
            << (pool == nullptr ? 0 : pool->num_threads());
      }
    }
  }
}

// With fake reports, the generalized calibration stays unbiased for both
// GRR (q_f = 1/d != q) and SOLH (q_f = q = 1/d').
TEST(CalibrateTest, UnbiasedWithFakesGrr) {
  const uint64_t d = 6, n = 10000, n_fake = 4000;
  Grr grr(1.5, d);
  Rng rng(4);
  RunningStat est0;
  for (int t = 0; t < 80; ++t) {
    std::vector<LdpReport> reports;
    reports.reserve(n + n_fake);
    for (uint64_t i = 0; i < n; ++i) {
      reports.push_back(grr.Encode(i < n / 2 ? 0 : 1 + (i % (d - 1)), &rng));
    }
    for (uint64_t i = 0; i < n_fake; ++i) {
      reports.push_back(grr.MakeFakeReport(&rng));
    }
    std::vector<uint64_t> supports(1, 0);
    AccumulateSupportCounts(grr, reports.data(), reports.size(), 0, 1,
                            supports.data(), nullptr);
    est0.Add(CalibrateEstimates(grr, supports, n, n_fake)[0]);
  }
  EXPECT_NEAR(est0.mean(), 0.5, 6 * est0.stderr_mean());
}

TEST(CalibrateTest, UnbiasedWithFakesSolh) {
  const uint64_t d = 100, d_prime = 8, n = 10000, n_fake = 4000;
  LocalHash lh(2.0, d, d_prime);
  Rng rng(5);
  RunningStat est0;
  for (int t = 0; t < 80; ++t) {
    std::vector<LdpReport> reports;
    reports.reserve(n + n_fake);
    for (uint64_t i = 0; i < n; ++i) {
      reports.push_back(lh.Encode(i < n / 2 ? 0 : 1 + (i % (d - 1)), &rng));
    }
    for (uint64_t i = 0; i < n_fake; ++i) {
      reports.push_back(lh.MakeFakeReport(&rng));
    }
    std::vector<uint64_t> supports(1, 0);
    AccumulateSupportCounts(lh, reports.data(), reports.size(), 0, 1,
                            supports.data(), nullptr);
    est0.Add(CalibrateEstimates(lh, supports, n, n_fake)[0]);
  }
  EXPECT_NEAR(est0.mean(), 0.5, 6 * est0.stderr_mean());
}

// For GRR the paper's two-step Eq. (2)+(6) estimator coincides exactly
// with the generalized single-step calibration.
TEST(CalibrateTest, Eq6MatchesGeneralizedForGrr) {
  const uint64_t d = 6, n = 1000, n_fake = 300;
  Grr grr(1.0, d);
  Rng rng(6);
  std::vector<LdpReport> reports;
  for (uint64_t i = 0; i < n; ++i) reports.push_back(grr.Encode(i % d, &rng));
  for (uint64_t i = 0; i < n_fake; ++i) {
    reports.push_back(grr.MakeFakeReport(&rng));
  }
  auto supports = SupportCountsFullDomain(grr, reports);
  auto general = CalibrateEstimates(grr, supports, n, n_fake);
  auto eq6 = CalibrateEstimatesEq6(grr, supports, n, n_fake);
  for (uint64_t v = 0; v < d; ++v) {
    EXPECT_NEAR(general[v], eq6[v], 1e-9) << v;
  }
}

TEST(CalibrateTest, NoFakesReducesToClassicEquation) {
  const uint64_t d = 4, n = 100;
  Grr grr(1.0, d);
  std::vector<uint64_t> supports = {40, 30, 20, 10};
  auto est = CalibrateEstimates(grr, supports, n, 0);
  double p = grr.p(), q = grr.q();
  for (uint64_t v = 0; v < d; ++v) {
    double expected =
        (static_cast<double>(supports[v]) / n - q) / (p - q);
    EXPECT_NEAR(est[v], expected, 1e-12);
  }
}

TEST(CalibrateTest, EstimatesSumToApproximatelyOne) {
  // GRR supports partition the reports, so calibrated estimates sum to 1.
  const uint64_t d = 12, n = 30000;
  Grr grr(2.0, d);
  Rng rng(7);
  std::vector<LdpReport> reports(n);
  for (uint64_t i = 0; i < n; ++i) reports[i] = grr.Encode(i % d, &rng);
  auto est = EstimateFrequencies(grr, reports, n);
  double sum = 0;
  for (double f : est) sum += f;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

}  // namespace
}  // namespace ldp
}  // namespace shuffledp
