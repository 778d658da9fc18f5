// Server-side frequency estimation for scalar-report oracles.
//
// Two pipelines:
//  * Exact: aggregate per-report support counts (parallelized), then apply
//    the calibration of Eqs. (2)/(3), generalized to n true + n_r uniform
//    fake reports (the PEOS estimator).
//  * Paper-faithful two-step: Eq. (2)/(3) over all n + n_r reports followed
//    by the Eq. (6) de-bias. For GRR the two coincide exactly. The
//    single-step form is unbiased for every oracle: a true user with
//    frequency f_v supports v with probability f_v·p + (1 − f_v)·q and a
//    fake with q_f, so E[support_v] = n·f_v·(p − q) + n·q + n_r·q_f, and
//    subtracting n·q + n_r·q_f then dividing by n·(p − q) leaves f_v.

#ifndef SHUFFLEDP_LDP_ESTIMATOR_H_
#define SHUFFLEDP_LDP_ESTIMATOR_H_

#include <cstdint>
#include <vector>

#include "ldp/frequency_oracle.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace shuffledp {
namespace ldp {

/// The one support-aggregation path: for every v in [lo, hi) adds the
/// number of `reports` supporting v to counts[v − lo] (accumulated, never
/// assigned). With a pool of two or more workers the value range fans
/// out into sub-ranges that write disjoint slots, so the counts are
/// identical for any pool size; a one-worker pool runs serially.
/// Pre: lo <= hi <= domain_size.
void AccumulateSupportCounts(const ScalarFrequencyOracle& oracle,
                             const LdpReport* reports, size_t count,
                             uint64_t lo, uint64_t hi, uint64_t* counts,
                             ThreadPool* pool);

/// Support counts for the full domain [0, d).
std::vector<uint64_t> SupportCountsFullDomain(
    const ScalarFrequencyOracle& oracle,
    const std::vector<LdpReport>& reports, ThreadPool* pool = nullptr);

/// Generalized unbiased calibration with n true users and n_fake uniform
/// fake reports:
///   f'_v = (support_v − n·q − n_fake·q_f) / (n (p − q)).
/// With n_fake = 0 this is exactly Eq. (2)/(3).
std::vector<double> CalibrateEstimates(const ScalarFrequencyOracle& oracle,
                                       const std::vector<uint64_t>& supports,
                                       uint64_t n, uint64_t n_fake);

/// PEOS variant of the calibration: fake reports reconstruct from uniform
/// Z_{2^B} shares, so their support probability is
/// `oracle.OrdinalFakeSupportProb()` (equal to q_fake when the ordinal
/// space is padding-free).
std::vector<double> CalibrateEstimatesOrdinal(
    const ScalarFrequencyOracle& oracle,
    const std::vector<uint64_t>& supports, uint64_t n, uint64_t n_fake);

/// Paper Eq. (2)/(3) + Eq. (6): calibrate over all n + n_fake reports
/// pretending they are users, then de-bias with
///   f'_v = (n+n_r)/n · f~_v − n_r/(n d).
/// Unbiased for GRR; kept for API fidelity and cross-checked in tests.
std::vector<double> CalibrateEstimatesEq6(const ScalarFrequencyOracle& oracle,
                                          const std::vector<uint64_t>& supports,
                                          uint64_t n, uint64_t n_fake);

/// Full pipeline: aggregate + calibrate over the whole domain.
std::vector<double> EstimateFrequencies(const ScalarFrequencyOracle& oracle,
                                        const std::vector<LdpReport>& reports,
                                        uint64_t n, uint64_t n_fake = 0,
                                        ThreadPool* pool = nullptr);

}  // namespace ldp
}  // namespace shuffledp

#endif  // SHUFFLEDP_LDP_ESTIMATOR_H_
