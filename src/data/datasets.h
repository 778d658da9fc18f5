// Synthetic dataset generators standing in for the paper's three real
// datasets (offline substitution: the real files are not bundled):
//
//   IPUMS   — US Census 1940, 1% sample, city attribute:
//             n = 602,325 users, d = 915 cities.
//   Kosarak — click streams, one item per user:
//             n = 1,000,000 users, d = 42,178 items.
//   AOL     — first query per user, 6 bytes (48 bits):
//             n ~ 500,000 users, ~120,000 distinct strings.
//
// All three real datasets are heavy-tailed; we generate Zipf-distributed
// values with the published (n, d) so every estimator-variance-driven
// comparison (Figures 3/4, Table II) keeps its shape.

#ifndef SHUFFLEDP_DATA_DATASETS_H_
#define SHUFFLEDP_DATA_DATASETS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace shuffledp {
namespace data {

/// A categorical dataset: n user values over domain [0, d).
struct Dataset {
  std::string name;
  uint64_t domain_size = 0;
  std::vector<uint64_t> values;  ///< one value per user

  uint64_t user_count() const { return values.size(); }

  /// Per-value counts (histogram), length domain_size.
  std::vector<uint64_t> ValueCounts() const;

  /// True frequencies f_v = count_v / n.
  std::vector<double> Frequencies() const;

  /// Indices of the k most frequent values (ties broken by value).
  std::vector<uint64_t> TopK(size_t k) const;
};

/// Zipf sampler over [0, d) with exponent s: P(v) ∝ 1/(v+1)^s.
/// Uses an alias table; O(d) setup, O(1) per sample.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t d, double s);

  uint64_t Sample(Rng* rng) const;

  const std::vector<double>& probabilities() const { return probs_; }

 private:
  std::vector<double> probs_;
  std::vector<double> accept_;
  std::vector<uint32_t> alias_;
};

/// Generic Zipf dataset.
Dataset MakeZipfDataset(const std::string& name, uint64_t n, uint64_t d,
                        double zipf_s, uint64_t seed);

/// IPUMS-shaped dataset (n = 602,325, d = 915). `scale` in (0, 1] shrinks
/// n proportionally for quick runs.
Dataset MakeSyntheticIpums(uint64_t seed, double scale = 1.0);

/// Kosarak-shaped dataset (n = 1,000,000, d = 42,178).
Dataset MakeSyntheticKosarak(uint64_t seed, double scale = 1.0);

/// AOL-shaped dataset: values are 48-bit strings (6 bytes). Returns a
/// Dataset whose `values` are the 48-bit codes; `domain_size` is 2^48 and
/// the number of distinct codes is ~0.12M at full scale.
Dataset MakeSyntheticAol(uint64_t seed, double scale = 1.0);

}  // namespace data
}  // namespace shuffledp

#endif  // SHUFFLEDP_DATA_DATASETS_H_
