// Frequency-oracle interface for scalar-report LDP mechanisms.
//
// A *scalar* oracle (GRR, OLH/SOLH, Hadamard response) emits one small
// report per user — optionally tagged with a hash seed — which is exactly
// the shape PEOS secret-shares ("the domain of the report can be mapped to
// an ordinal group", paper §VI-A2). Unary-encoding mechanisms (RAPPOR,
// RAP_R, AUE) emit d-length vectors and live in unary.h / aue.h.
//
// The server-side estimator needs only three numbers per oracle:
//   p  = Pr[report supports v | user's value is v]
//   q  = Pr[report supports v | user's value is not v]
//   qf = Pr[uniform fake report supports v]
// (for GRR qf = 1/d != q; for local hashing qf = q = 1/d').

#ifndef SHUFFLEDP_LDP_FREQUENCY_ORACLE_H_
#define SHUFFLEDP_LDP_FREQUENCY_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/rng.h"
#include "util/status.h"

namespace shuffledp {
namespace ldp {

/// One user's perturbed report.
struct LdpReport {
  uint32_t seed = 0;   ///< hash-family member (0 for GRR)
  uint32_t value = 0;  ///< perturbed value in [0, report_domain)

  bool operator==(const LdpReport& o) const {
    return seed == o.seed && value == o.value;
  }
};

/// Packs a report into the 64-bit integer PEOS secret-shares.
inline uint64_t PackReport(const LdpReport& r) {
  return (static_cast<uint64_t>(r.seed) << 32) | r.value;
}

/// Inverse of PackReport.
inline LdpReport UnpackReport(uint64_t packed) {
  return LdpReport{static_cast<uint32_t>(packed >> 32),
                   static_cast<uint32_t>(packed & 0xFFFFFFFFu)};
}

/// Support-probability triple used by estimators and the fast simulator.
struct SupportProbs {
  double p_true;   ///< support probability for the user's own value
  double q_other;  ///< support probability for any other value
  double q_fake;   ///< support probability of a uniform fake report
};

/// Abstract scalar-report frequency oracle.
class ScalarFrequencyOracle {
 public:
  virtual ~ScalarFrequencyOracle() = default;

  /// Mechanism name for logs and benchmark output ("GRR", "SOLH", ...).
  virtual std::string Name() const = 0;

  /// Input domain size d.
  virtual uint64_t domain_size() const = 0;

  /// Size of the report value space (d for GRR, d' for local hashing, 2
  /// for Hadamard response).
  virtual uint64_t report_domain() const = 0;

  /// The local ε this oracle was configured with.
  virtual double epsilon_local() const = 0;

  /// Client side: encodes and perturbs `v` (< domain_size()).
  virtual LdpReport Encode(uint64_t v, Rng* rng) const = 0;

  /// Server side: does `report` support value `v`?
  virtual bool Supports(const LdpReport& report, uint64_t v) const = 0;

  /// Bulk aggregation: for every v in [value_lo, value_hi) adds
  /// |{ i : Supports(reports[i], v) }| to counts[v − value_lo]. Counts are
  /// accumulated, never assigned, so value sub-ranges can share one
  /// buffer. The default is the per-pair scalar loop — the reference the
  /// overrides are tested against: LocalHash runs the tiled kernels in
  /// support_kernels.h, Grr one histogram increment per report.
  virtual void AccumulateSupports(const LdpReport* reports, size_t count,
                                  uint64_t value_lo, uint64_t value_hi,
                                  uint64_t* counts) const;

  /// Bulk single-value form: |{ i : Supports(reports[i], v) }|.
  virtual uint64_t SupportsMany(const LdpReport* reports, size_t count,
                                uint64_t v) const;

  /// Samples a report uniformly from the output space (the PEOS fake
  /// report distribution, Algorithm 1).
  virtual LdpReport MakeFakeReport(Rng* rng) const = 0;

  /// The calibration triple.
  virtual SupportProbs support_probs() const = 0;

  /// Validates a report that arrived over the network / out of a share
  /// reconstruction (range checks).
  virtual Status ValidateReport(const LdpReport& report) const;

  /// Wire size of one report in bytes (seed + value, packed).
  virtual size_t ReportBytes() const { return 8; }

  /// True when Supports(report, v) reduces to report.value == v (GRR).
  /// AccumulateSupports then walks the batch once whatever the value
  /// range, so aggregators skip the value-range fan-out, and the round
  /// store captures a sparse per-report delta instead of a diff.
  virtual bool SupportIsValueEquality() const { return false; }

  // --- Ordinal codec for PEOS secret sharing ------------------------------
  //
  // PEOS shares reports over Z_{2^B}: uniform B-bit fake *shares*
  // reconstruct to a uniform value over Z_{2^B}, so the report space must
  // be padded to a power of two (paper §VI-A2 maps reports to "an ordinal
  // group"; the power-of-two padding makes that group match the AHE
  // plaintext group exactly). Values decoding into the padding region are
  // discarded by the server; OrdinalFakeSupportProb() gives the exact
  // support probability of a uniform Z_{2^B} fake so calibration stays
  // unbiased.

  /// Number of bits B of the padded ordinal report space (B <= 64).
  virtual unsigned PackedBits() const = 0;

  /// Maps a report to its ordinal index in [0, 2^B).
  virtual uint64_t PackOrdinal(const LdpReport& report) const = 0;

  /// Inverse of PackOrdinal; OutOfRange for padding indices.
  virtual Result<LdpReport> UnpackOrdinal(uint64_t ordinal) const = 0;

  /// Pr[a uniform Z_{2^B} fake report supports v] (any v).
  virtual double OrdinalFakeSupportProb() const = 0;
};

}  // namespace ldp
}  // namespace shuffledp

#endif  // SHUFFLEDP_LDP_FREQUENCY_ORACLE_H_
