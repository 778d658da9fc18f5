// End-to-end bulk-aggregation-path check: a full SOLH streaming round
// (encode → offer → value-range fan-out → bulk support kernels →
// calibrate)
// must produce *bitwise identical* supports and estimates no matter
// which support-kernel backend aggregates it — the SIMD kernels, the
// portable unrolled backend, and the forced per-pair scalar reference
// are all the same protocol arithmetic (XxHash64 % d'), just faster.
//
// This is the integration-level counterpart of the per-kernel
// cross-checks in tests/ldp/support_kernel_test.cpp: it exercises the
// real pipeline wiring (StreamingCollector batches, slice-restricted
// ldp::AccumulateSupportCounts, the pool==nullptr single-pass path)
// rather than the kernel entry points in isolation.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "ldp/estimator.h"
#include "ldp/local_hash.h"
#include "ldp/support_kernels.h"
#include "service/streaming_collector.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace shuffledp {
namespace service {
namespace {

// Installs a backend for the test body and restores the previous one on
// scope exit, so test order never leaks backend state.
class BackendGuard {
 public:
  BackendGuard() : saved_(ldp::ActiveSupportBackend()) {}
  ~BackendGuard() { ldp::SetSupportBackend(saved_); }

 private:
  ldp::SupportBackend saved_;
};

// Every backend this host can run, always including the scalar per-pair
// reference and the best available SIMD tier.
std::vector<ldp::SupportBackend> HostBackends() {
  std::vector<ldp::SupportBackend> backends = {
      ldp::SupportBackend::kScalar, ldp::SupportBackend::kPortable};
  const ldp::SupportBackend best = ldp::BestSupportBackend();
  if (best != ldp::SupportBackend::kPortable) backends.push_back(best);
  return backends;
}

std::vector<ldp::LdpReport> EncodeSkewed(
    const ldp::ScalarFrequencyOracle& oracle, uint64_t n, uint64_t seed) {
  const uint64_t d = oracle.domain_size();
  Rng rng(seed);
  std::vector<ldp::LdpReport> reports;
  reports.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t v = (i % 3 == 0) ? 0 : i % d;
    reports.push_back(oracle.Encode(v, &rng));
  }
  return reports;
}

struct RoundOutput {
  std::vector<uint64_t> supports;
  std::vector<double> estimates;
  uint64_t rows_aggregated = 0;
};

RoundOutput RunStreamingRound(const ldp::ScalarFrequencyOracle& oracle,
                              const std::vector<ldp::LdpReport>& reports,
                              ThreadPool* pool) {
  StreamingOptions opts;
  opts.batch_size = 4096;
  opts.pool = pool;
  StreamingCollector collector(oracle, opts);
  EXPECT_TRUE(collector.OfferReports(reports).ok());
  auto round =
      collector.FinishRound(reports.size(), 0, Calibration::kStandard);
  RoundOutput out;
  if (!round.ok()) {
    ADD_FAILURE() << round.status().ToString();
    return out;
  }
  out.supports = round->supports;
  out.estimates = round->estimates;
  out.rows_aggregated = round->stats.rows_aggregated;
  return out;
}

bool BitwiseEqual(const std::vector<double>& a,
                  const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The acceptance-scale run: n = 10^6 SOLH reports through the streaming
// pipeline, once per backend, all outputs bitwise equal.
TEST(AggregationKernelE2E, MillionRowStreamingBitwiseAcrossBackends) {
  const uint64_t n = 1000000, d = 256, d_prime = 16;
  ldp::LocalHash oracle(3.0, d, d_prime, "SOLH");
  auto reports = EncodeSkewed(oracle, n, 20260808);
  ThreadPool pool(4);

  BackendGuard guard;
  std::vector<RoundOutput> runs;
  for (ldp::SupportBackend backend : HostBackends()) {
    ldp::SetSupportBackend(backend);
    runs.push_back(RunStreamingRound(oracle, reports, &pool));
    EXPECT_EQ(runs.back().rows_aggregated, n)
        << ldp::SupportBackendName(backend);
  }
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[0].supports, runs[i].supports)
        << "supports diverge on backend "
        << ldp::SupportBackendName(HostBackends()[i]);
    EXPECT_TRUE(BitwiseEqual(runs[0].estimates, runs[i].estimates))
        << "estimates diverge on backend "
        << ldp::SupportBackendName(HostBackends()[i]);
  }
}

// Non-power-of-two hash range takes the magic-modulo kernel path; same
// bitwise contract at a smaller n.
TEST(AggregationKernelE2E, NonPowerOfTwoDPrimeStreamingBitwise) {
  const uint64_t n = 60000, d = 128, d_prime = 19;
  ldp::LocalHash oracle(2.0, d, d_prime, "SOLH");
  auto reports = EncodeSkewed(oracle, n, 77);
  ThreadPool pool(3);

  BackendGuard guard;
  std::vector<RoundOutput> runs;
  for (ldp::SupportBackend backend : HostBackends()) {
    ldp::SetSupportBackend(backend);
    runs.push_back(RunStreamingRound(oracle, reports, &pool));
  }
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[0].supports, runs[i].supports);
    EXPECT_TRUE(BitwiseEqual(runs[0].estimates, runs[i].estimates));
  }
}

// Slice-restricted counting (a partition worker owning [lo, hi)) must
// agree with the matching slice of a full-domain pass, across backends
// and across the pooled fan-out vs the pool==nullptr single-pass path.
TEST(AggregationKernelE2E, SliceRestrictedCounterMatchesFullDomainSlice) {
  const uint64_t n = 30000, d = 192, d_prime = 19;
  const uint64_t lo = d / 3, hi = d - d / 5;
  ldp::LocalHash oracle(2.5, d, d_prime, "SOLH");
  auto reports = EncodeSkewed(oracle, n, 4242);
  ThreadPool pool(4);

  BackendGuard guard;
  std::vector<uint64_t> reference;  // full-domain slice on the first run
  for (ldp::SupportBackend backend : HostBackends()) {
    ldp::SetSupportBackend(backend);

    auto full_counts = ldp::SupportCountsFullDomain(oracle, reports, &pool);
    std::vector<uint64_t> slice_of_full(full_counts.begin() + lo,
                                        full_counts.begin() + hi);
    if (reference.empty()) reference = slice_of_full;
    EXPECT_EQ(reference, slice_of_full)
        << ldp::SupportBackendName(backend);

    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      std::vector<uint64_t> sliced(hi - lo, 0);
      ldp::AccumulateSupportCounts(oracle, reports.data(), reports.size(),
                                   lo, hi, sliced.data(), p);
      EXPECT_EQ(sliced, slice_of_full)
          << ldp::SupportBackendName(backend)
          << (p == nullptr ? " serial" : " pooled");
    }
  }
}

}  // namespace
}  // namespace service
}  // namespace shuffledp
