// PEOS — Private Encrypted Oblivious Shuffle (paper Algorithm 1).
//
// End-to-end flow:
//   1. User i computes Y_i = FO(v_i) (GRR or SOLH), packs it into a 64-bit
//      word, splits it into r additive shares over Z_{2^ell}; shares
//      1..r−1 go to shufflers in the clear (over secure channels), share r
//      is Paillier-encrypted under the server's public key and goes to
//      shuffler r.
//   2. Shuffler j < r samples n_r fake-report shares uniformly; shuffler r
//      encrypts its fake shares. (A malicious shuffler can bias its own
//      shares — the other shufflers' uniform shares mask them, which the
//      robustness tests verify.)
//   3. All shufflers run EOS over the n + n_r share rows.
//   4. The server receives the r plaintext columns and the ciphertext
//      column, decrypts the whole column in one packed pass on the pool,
//      reconstructs the packed reports mod 2^ell, unpacks, and estimates
//      with the fake-report-aware calibration.

#ifndef SHUFFLEDP_SHUFFLE_PEOS_H_
#define SHUFFLEDP_SHUFFLE_PEOS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/paillier.h"
#include "crypto/secure_random.h"
#include "ldp/frequency_oracle.h"
#include "service/streaming_collector.h"
#include "shuffle/cost_model.h"
#include "shuffle/oblivious_shuffle.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace shuffledp {
namespace shuffle {

/// Malicious-shuffler knobs for the poisoning experiments.
enum class PeosShufflerBehaviour {
  kHonest,
  kBiasedFakeShares,  ///< sets its fake-report shares to a constant
};

/// PEOS protocol configuration.
struct PeosConfig {
  uint32_t num_shufflers = 3;           ///< r
  uint64_t fake_reports = 0;            ///< n_r (total, one share set each)
  unsigned ell = 64;                    ///< share group Z_{2^ell}
  size_t paillier_bits = 1024;          ///< server AHE modulus size
  // The server always decrypts packed: one p^2-half decryption per group
  // of PackedSlotCapacity(PeosPackedSlotBits(ell, r)) = (|p| - 1) /
  // slot_bits rows (12 at 40-bit slots with a 1024-bit key); a key whose
  // p cannot hold one slot is rejected. Threat bound: a hostile
  // (oversized) plaintext corrupts at most the other rows of its own
  // post-EOS pack group; every row outside that group decrypts exactly.
  /// Encrypt and re-mask with a 64-entry pairwise RandomizerPool (a
  /// simulation shortcut, see crypto/paillier.h) instead of a fresh
  /// full-width r^N modexp per ciphertext.
  bool use_randomizer_pool = true;
  std::vector<PeosShufflerBehaviour> behaviours;  ///< default: honest
  uint64_t poison_target_packed = 0;    ///< payload for biased shares
  ThreadPool* pool = nullptr;
  /// Server-side ingestion pipeline knobs, including crash-safe
  /// `streaming.round_store` persistence; `streaming.pool` is ignored
  /// (the server pipeline shares `pool`).
  service::StreamingOptions streaming;
};

/// Result of one PEOS collection round.
struct PeosResult {
  std::vector<double> estimates;   ///< frequencies over [0, d)
  uint64_t reports_decoded = 0;    ///< valid reports after reconstruction
  uint64_t reports_invalid = 0;    ///< failed ValidateReport (poison noise)
  CostReport costs;
  service::StreamingStats streaming;  ///< server ingestion pipeline stats
};

/// Bits per slot of the server's packed decryption for share width `ell`
/// and r shufflers: the encrypted share starts < 2^ell and every EOS
/// round homomorphically adds one more ell-bit mask adjustment (the
/// invariant EosRounds documents), so a row's integer plaintext is
/// < (EosRounds(r) + 1) * 2^ell; each slot gets that headroom plus a
/// safety bit.
unsigned PeosPackedSlotBits(unsigned ell, uint32_t num_shufflers);

/// Runs the full PEOS protocol over `values`.
Result<PeosResult> RunPeos(const ldp::ScalarFrequencyOracle& oracle,
                           const std::vector<uint64_t>& values,
                           const PeosConfig& config,
                           crypto::SecureRandom* rng);

/// Collusion analysis helper (§V, §VI-B): reconstructs the *view of the
/// server colluding with all users except `victim_index`* — i.e., the
/// decoded multiset minus every non-victim user's true report. What
/// remains is the victim's report hidden among the n_r fake reports; the
/// attack tests verify the residual matches the Bin(n_r, 1/d') blanket of
/// Corollary 8.
struct CollusionView {
  std::vector<uint64_t> residual_support;  ///< per-value support counts
  ldp::LdpReport victim_report;            ///< ground truth (test oracle)
};

}  // namespace shuffle
}  // namespace shuffledp

#endif  // SHUFFLEDP_SHUFFLE_PEOS_H_
