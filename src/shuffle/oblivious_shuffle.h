// Resharing-based oblivious shuffle (Laur, Willemson & Zhang '11; paper
// §II-C) and its AHE-carrying extension EOS (paper §VI-A3, Figure 2).
//
// State: r shufflers each hold one additive-share column of the n secrets
// over Z_{2^ell}. With t = floor(r/2) + 1 "hiders", the protocol runs one
// round per t-subset of shufflers (C(r, t) rounds, the "hide and seek"
// game): the r − t seekers re-share their columns to the hiders, the
// hiders permute with an agreed permutation, then re-share everything
// back to all r shufflers. After all rounds, no coalition of r − t
// shufflers knows the composed permutation.
//
// EOS additionally threads one AHE-encrypted column (held by a designated
// shuffler E) through the rounds, so that even all r shufflers together
// cannot reconstruct the secrets.

#ifndef SHUFFLEDP_SHUFFLE_OBLIVIOUS_SHUFFLE_H_
#define SHUFFLEDP_SHUFFLE_OBLIVIOUS_SHUFFLE_H_

#include <cstdint>
#include <vector>

#include "crypto/paillier.h"
#include "crypto/secure_random.h"
#include "shuffle/cost_model.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace shuffledp {
namespace shuffle {

/// Enumerates all t-subsets of {0, ..., r-1} in lexicographic order.
std::vector<std::vector<uint32_t>> AllSubsets(uint32_t r, uint32_t t);

/// Number of EOS rounds for r shufflers: C(r, r/2 + 1) hider subsets,
/// the count RunEncryptedObliviousShuffle enumerates. Each round
/// homomorphically adds exactly one ell-bit mask adjustment to every
/// ciphertext (step 1b), so this also bounds the integer growth of a
/// ciphertext's plaintext — the invariant the PEOS packed-decryption
/// slot sizing depends on.
uint64_t EosRounds(uint32_t r);

/// Share state for the plain oblivious shuffle: columns[j][i] is shuffler
/// j's share of secret i.
struct ShareMatrix {
  std::vector<std::vector<uint64_t>> columns;  // r columns of length n
  unsigned ell = 64;

  uint32_t num_shufflers() const {
    return static_cast<uint32_t>(columns.size());
  }
  uint64_t num_secrets() const {
    return columns.empty() ? 0 : columns[0].size();
  }

  /// Reconstructs all secrets (test / server-side helper).
  std::vector<uint64_t> Reconstruct() const;
};

/// Runs the plain resharing-based oblivious shuffle in place.
/// The composed permutation is returned for test inspection only (a real
/// deployment has no single party that knows it).
Status RunObliviousShuffle(ShareMatrix* shares, crypto::SecureRandom* rng,
                           CostLedger* ledger,
                           std::vector<uint32_t>* composed_perm = nullptr);

/// EOS state: r plaintext columns plus one AHE ciphertext column held by
/// shuffler `e_holder`. Sum of plaintext columns + Dec(cipher column)
/// (mod 2^ell) reconstructs the secrets.
struct EosState {
  ShareMatrix plain;
  std::vector<crypto::PaillierCiphertext> cipher_column;
  uint32_t e_holder = 0;
};

/// EOS options.
struct EosOptions {
  const crypto::PaillierPublicKey* public_key = nullptr;
  /// Optional Enc(0) pool; when null, every re-mask uses a fresh modexp.
  const crypto::RandomizerPool* pool = nullptr;
  /// Optional pool for the per-round column work (null = serial); the
  /// output columns are bitwise the same either way.
  ThreadPool* thread_pool = nullptr;
};

/// Runs EOS in place: after the call, the permutation of the secrets is
/// unknown to any coalition of <= r − t shufflers, and the secrets are
/// unknown even to all r shufflers jointly (one column stays encrypted).
Status RunEncryptedObliviousShuffle(EosState* state, const EosOptions& opts,
                                    crypto::SecureRandom* rng,
                                    CostLedger* ledger);

}  // namespace shuffle
}  // namespace shuffledp

#endif  // SHUFFLEDP_SHUFFLE_OBLIVIOUS_SHUFFLE_H_
