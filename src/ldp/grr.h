// Generalized randomized response (GRR), paper §II-B Eq. (1).

#ifndef SHUFFLEDP_LDP_GRR_H_
#define SHUFFLEDP_LDP_GRR_H_

#include "ldp/frequency_oracle.h"

namespace shuffledp {
namespace ldp {

/// GRR: report the true value with probability p = e^ε/(e^ε+d−1), any
/// other fixed value with probability q = 1/(e^ε+d−1).
class Grr : public ScalarFrequencyOracle {
 public:
  /// Pre: eps_l > 0, d >= 2.
  Grr(double eps_l, uint64_t d);

  std::string Name() const override { return "GRR"; }
  uint64_t domain_size() const override { return d_; }
  uint64_t report_domain() const override { return d_; }
  double epsilon_local() const override { return eps_l_; }

  LdpReport Encode(uint64_t v, Rng* rng) const override;
  bool Supports(const LdpReport& report, uint64_t v) const override;
  /// Equality support: one histogram increment per report whose value
  /// lies in [value_lo, value_hi) — O(count), not O(count × range).
  void AccumulateSupports(const LdpReport* reports, size_t count,
                          uint64_t value_lo, uint64_t value_hi,
                          uint64_t* counts) const override;
  LdpReport MakeFakeReport(Rng* rng) const override;
  SupportProbs support_probs() const override;
  bool SupportIsValueEquality() const override { return true; }

  unsigned PackedBits() const override { return packed_bits_; }
  uint64_t PackOrdinal(const LdpReport& report) const override {
    return report.value;
  }
  Result<LdpReport> UnpackOrdinal(uint64_t ordinal) const override;
  double OrdinalFakeSupportProb() const override {
    return 1.0 / static_cast<double>(uint64_t{1} << packed_bits_);
  }

  double p() const { return p_; }
  double q() const { return q_; }

 private:
  double eps_l_;
  uint64_t d_;
  unsigned packed_bits_;  // ceil(log2 d)
  double p_;  // e^ε / (e^ε + d − 1)
  double q_;  // 1 / (e^ε + d − 1)
};

}  // namespace ldp
}  // namespace shuffledp

#endif  // SHUFFLEDP_LDP_GRR_H_
