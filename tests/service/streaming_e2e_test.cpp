// End-to-end streaming collection at the ROADMAP's scale target:
// n = 10^6 simulated users, d = 1024 — the paper's IPUMS setting scaled
// up — must complete through the full pipeline (bounded queue, batched
// ingest, parallel support counting) on a laptop-class box, and its output
// must agree *in distribution* with the statistically-exact simulator
// (ShuffleDpCollector::SimulateCollect / FastSimulateSupports).
//
// Agreement is asserted without repeated runs: for each value v the
// support count is a sum of independent Bernoullis with known mean μ_v
// and variance σ_v², so the per-value z-scores of a single run form a
// ~N(0,1) sample of size d. Both pipelines' z-samples must individually
// stay within Gaussian bounds and must match each other under a
// two-sample KS test.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/shuffle_dp.h"
#include "ldp/estimator.h"
#include "ldp/fast_sim.h"
#include "ldp/grr.h"
#include "service/streaming_collector.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace shuffledp {
namespace service {
namespace {

// Population with a few heavy hitters over [0, d).
std::vector<uint64_t> HeavyHitterCounts(uint64_t n, uint64_t d) {
  std::vector<uint64_t> counts(d, 0);
  counts[0] = n / 10;
  counts[1] = n / 20;
  counts[2] = n / 20;
  uint64_t assigned = counts[0] + counts[1] + counts[2];
  uint64_t rest = n - assigned;
  for (uint64_t v = 3; v < d; ++v) counts[v] = rest / (d - 3);
  counts[d - 1] += rest - (rest / (d - 3)) * (d - 3);
  return counts;
}

std::vector<uint64_t> ExpandValues(const std::vector<uint64_t>& counts) {
  std::vector<uint64_t> values;
  for (uint64_t v = 0; v < counts.size(); ++v) {
    values.insert(values.end(), counts[v], v);
  }
  return values;
}

// Per-value support z-scores against the exact Binomial-sum law.
std::vector<double> SupportZScores(const std::vector<uint64_t>& supports,
                                   const std::vector<uint64_t>& counts,
                                   uint64_t n, uint64_t n_fake, double p,
                                   double q, double q_fake) {
  std::vector<double> z(supports.size());
  for (uint64_t v = 0; v < supports.size(); ++v) {
    const double nv = static_cast<double>(counts[v]);
    const double mean = nv * p + (static_cast<double>(n) - nv) * q +
                        static_cast<double>(n_fake) * q_fake;
    const double var = nv * p * (1 - p) +
                       (static_cast<double>(n) - nv) * q * (1 - q) +
                       static_cast<double>(n_fake) * q_fake * (1 - q_fake);
    z[v] = (static_cast<double>(supports[v]) - mean) / std::sqrt(var);
  }
  return z;
}

TEST(StreamingE2E, MillionUsersThousandValuesCompletesAndConforms) {
  const uint64_t n = 1000000, d = 1024;
  ldp::Grr oracle(3.0, d);
  auto counts = HeavyHitterCounts(n, d);
  auto values = ExpandValues(counts);
  ASSERT_EQ(values.size(), n);

  StreamingOptions opts;
  opts.batch_size = 8192;
  opts.queue_capacity = 32;
  opts.pool = &GlobalThreadPool();
  StreamingCollector collector(oracle, opts);

  // Producer: encode batch by batch (deterministic chunk seeds).
  const uint64_t base_seed = 0xE2E0001ULL;
  for (uint64_t lo = 0; lo < n; lo += opts.batch_size) {
    uint64_t hi = std::min<uint64_t>(n, lo + opts.batch_size);
    Rng batch_rng(base_seed ^ (lo * 0x9E3779B97F4A7C15ULL));
    std::vector<ldp::LdpReport> reports;
    reports.reserve(hi - lo);
    for (uint64_t i = lo; i < hi; ++i) {
      reports.push_back(oracle.Encode(values[i], &batch_rng));
    }
    ASSERT_TRUE(collector.Offer(MakePlainBatch(std::move(reports))).ok());
  }
  auto round = collector.FinishRound(n, 0, Calibration::kStandard);
  ASSERT_TRUE(round.ok()) << round.status().ToString();

  // The full stream was ingested, batched as configured.
  EXPECT_EQ(round->reports_decoded, n);
  EXPECT_EQ(round->stats.rows, n);
  EXPECT_EQ(round->stats.batches, (n + opts.batch_size - 1) / opts.batch_size);
  EXPECT_GT(round->stats.rows_per_second, 0.0);

  // Distribution conformance of the streaming run, per-value z-scores.
  const auto sp = oracle.support_probs();
  auto z_stream = SupportZScores(round->supports, counts, n, 0, sp.p_true,
                                 sp.q_other, sp.q_fake);
  for (double z : z_stream) ASSERT_LT(std::fabs(z), 6.0);

  // The fast simulator draws from the same law; its z-sample must match
  // the streaming run's under a two-sample KS test.
  Rng sim_rng(9090);
  auto sim_supports =
      ldp::FastSimulateSupports(sp, counts, n, 0, &sim_rng);
  auto z_sim = SupportZScores(sim_supports, counts, n, 0, sp.p_true,
                              sp.q_other, sp.q_fake);
  double d_stat = TwoSampleKsStat(z_stream, z_sim);
  double pval = TwoSampleKsPValue(d_stat, z_stream.size(), z_sim.size());
  EXPECT_GT(pval, 1e-3) << "streaming vs fast-sim KS D=" << d_stat;

  // Estimates recover the heavy hitters.
  EXPECT_NEAR(round->estimates[0], 0.10, 0.01);
  EXPECT_NEAR(round->estimates[1], 0.05, 0.01);
}

TEST(StreamingE2E, CollectStreamingAgreesWithSimulateCollect) {
  // The planner-chosen oracle at d = 1024: one CollectStreaming round and
  // one SimulateCollect round must tell the same story — per-value
  // z-conformance of the streamed supports, matching z-samples under KS,
  // and comparable MSE against the ground truth.
  const uint64_t n = 60000, d = 1024;
  core::PrivacyGoals goals;
  core::ShuffleDpCollector::Options options;
  options.streaming.batch_size = 4096;
  auto collector = core::ShuffleDpCollector::Create(goals, n, d, options);
  ASSERT_TRUE(collector.ok()) << collector.status().ToString();
  const auto& oracle = (*collector)->oracle();
  const uint64_t n_r = (*collector)->plan().n_r;

  auto counts = HeavyHitterCounts(n, d);
  auto values = ExpandValues(counts);

  Rng rng(31337);
  auto round = (*collector)->CollectStreaming(values, &rng);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->reports_decoded + round->reports_invalid, n + n_r);

  const auto sp = oracle.support_probs();
  const double q_fake = oracle.OrdinalFakeSupportProb();
  auto z_stream = SupportZScores(round->supports, counts, n, n_r,
                                 sp.p_true, sp.q_other, q_fake);
  for (double z : z_stream) ASSERT_LT(std::fabs(z), 6.0);

  // SimulateCollect draws supports from the same law; reconstruct them
  // from its estimates by inverting the (linear) ordinal calibration.
  auto sim = (*collector)->SimulateCollect(counts, n, &rng);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  std::vector<uint64_t> sim_supports(d);
  const double denom =
      static_cast<double>(n) * (sp.p_true - sp.q_other);
  const double baseline = static_cast<double>(n) * sp.q_other +
                          static_cast<double>(n_r) * q_fake;
  for (uint64_t v = 0; v < d; ++v) {
    sim_supports[v] = static_cast<uint64_t>(
        std::llround((*sim)[v] * denom + baseline));
  }
  auto z_sim = SupportZScores(sim_supports, counts, n, n_r, sp.p_true,
                              sp.q_other, q_fake);
  double d_stat = TwoSampleKsStat(z_stream, z_sim);
  double pval = TwoSampleKsPValue(d_stat, z_stream.size(), z_sim.size());
  EXPECT_GT(pval, 1e-3) << "CollectStreaming vs SimulateCollect KS D="
                        << d_stat;

  // Same utility on the same ground truth.
  std::vector<double> truth(d);
  for (uint64_t v = 0; v < d; ++v) {
    truth[v] = static_cast<double>(counts[v]) / static_cast<double>(n);
  }
  double mse_stream = MeanSquaredError(truth, round->estimates);
  double mse_sim = MeanSquaredError(truth, *sim);
  EXPECT_LT(mse_stream, 10 * mse_sim + 1e-6);
  EXPECT_LT(mse_sim, 10 * mse_stream + 1e-6);
}

}  // namespace
}  // namespace service
}  // namespace shuffledp
