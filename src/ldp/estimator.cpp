#include "ldp/estimator.h"

#include <cassert>

namespace shuffledp {
namespace ldp {

void AccumulateSupportCounts(const ScalarFrequencyOracle& oracle,
                             const LdpReport* reports, size_t count,
                             uint64_t lo, uint64_t hi, uint64_t* counts,
                             ThreadPool* pool) {
  if (count == 0) return;
  // Equality oracles (GRR) histogram the whole batch whatever the range
  // width, so a value-range fan-out would multiply that walk. A
  // one-worker pool would only hand the same serial walk to its thread.
  if (pool == nullptr || pool->num_threads() < 2 || hi - lo < 2 ||
      oracle.SupportIsValueEquality()) {
    oracle.AccumulateSupports(reports, count, lo, hi, counts);
    return;
  }
  // Tasks write disjoint count ranges: no atomics, and integer addition
  // makes the result independent of the split.
  pool->ParallelFor(lo, hi, [&](uint64_t sub_lo, uint64_t sub_hi) {
    oracle.AccumulateSupports(reports, count, sub_lo, sub_hi,
                              counts + (sub_lo - lo));
  });
}

std::vector<uint64_t> SupportCountsFullDomain(
    const ScalarFrequencyOracle& oracle,
    const std::vector<LdpReport>& reports, ThreadPool* pool) {
  const uint64_t d = oracle.domain_size();
  std::vector<uint64_t> counts(d, 0);
  AccumulateSupportCounts(oracle, reports.data(), reports.size(), 0, d,
                          counts.data(), pool);
  return counts;
}

namespace {

// f'_v = (support_v − n·q − n_fake·q_fake) / (n (p − q)); the two public
// calibrations differ only in the fake reports' support probability.
std::vector<double> Calibrate(const ScalarFrequencyOracle& oracle,
                              const std::vector<uint64_t>& supports,
                              uint64_t n, uint64_t n_fake, double q_fake) {
  const SupportProbs sp = oracle.support_probs();
  const double nd = static_cast<double>(n);
  const double baseline =
      nd * sp.q_other + static_cast<double>(n_fake) * q_fake;
  const double denom = nd * (sp.p_true - sp.q_other);
  std::vector<double> est(supports.size());
  for (size_t j = 0; j < supports.size(); ++j) {
    est[j] = (static_cast<double>(supports[j]) - baseline) / denom;
  }
  return est;
}

}  // namespace

std::vector<double> CalibrateEstimates(const ScalarFrequencyOracle& oracle,
                                       const std::vector<uint64_t>& supports,
                                       uint64_t n, uint64_t n_fake) {
  return Calibrate(oracle, supports, n, n_fake,
                   oracle.support_probs().q_fake);
}

std::vector<double> CalibrateEstimatesOrdinal(
    const ScalarFrequencyOracle& oracle,
    const std::vector<uint64_t>& supports, uint64_t n, uint64_t n_fake) {
  return Calibrate(oracle, supports, n, n_fake,
                   oracle.OrdinalFakeSupportProb());
}

std::vector<double> CalibrateEstimatesEq6(const ScalarFrequencyOracle& oracle,
                                          const std::vector<uint64_t>& supports,
                                          uint64_t n, uint64_t n_fake) {
  const SupportProbs sp = oracle.support_probs();
  const double total = static_cast<double>(n + n_fake);
  const double nd = static_cast<double>(n);
  const double d = static_cast<double>(oracle.domain_size());
  std::vector<double> est(supports.size());
  for (size_t j = 0; j < supports.size(); ++j) {
    // Eq. (2)/(3) over n + n_r reports.
    double f_tilde = (static_cast<double>(supports[j]) / total - sp.q_other) /
                     (sp.p_true - sp.q_other);
    // Eq. (6).
    est[j] = total / nd * f_tilde -
             static_cast<double>(n_fake) / (nd * d);
  }
  return est;
}

std::vector<double> EstimateFrequencies(const ScalarFrequencyOracle& oracle,
                                        const std::vector<LdpReport>& reports,
                                        uint64_t n, uint64_t n_fake,
                                        ThreadPool* pool) {
  assert(reports.size() == n + n_fake);
  auto supports = SupportCountsFullDomain(oracle, reports, pool);
  return CalibrateEstimates(oracle, supports, n, n_fake);
}

}  // namespace ldp
}  // namespace shuffledp
