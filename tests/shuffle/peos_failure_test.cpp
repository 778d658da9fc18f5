// Failure injection for PEOS: tampered ciphertexts, corrupted share
// columns, and dropped parties must degrade gracefully (bounded estimate
// damage or clean Status errors), never crash or silently corrupt.

#include <gtest/gtest.h>

#include "crypto/paillier.h"
#include "crypto/secret_sharing.h"
#include "ldp/grr.h"
#include "shuffle/oblivious_shuffle.h"
#include "shuffle/peos.h"

namespace shuffledp {
namespace shuffle {
namespace {

class PeosFailureTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new crypto::SecureRandom(uint64_t{5150});
    auto kp = crypto::PaillierGenerateKeyPair(256, rng_);
    ASSERT_TRUE(kp.ok());
    keys_ = new crypto::PaillierKeyPair(std::move(kp).value());
  }
  static void TearDownTestSuite() {
    delete keys_;
    delete rng_;
    keys_ = nullptr;
    rng_ = nullptr;
  }
  static crypto::SecureRandom* rng_;
  static crypto::PaillierKeyPair* keys_;
};

crypto::SecureRandom* PeosFailureTest::rng_ = nullptr;
crypto::PaillierKeyPair* PeosFailureTest::keys_ = nullptr;

// `count` secrets split into three ell-bit shares as PEOS users upload
// them: two plaintext columns plus the encrypted third share.
struct ShareRows {
  unsigned ell = 16;
  std::vector<uint64_t> secrets, plain0, plain1;
  std::vector<crypto::PaillierCiphertext> cipher;
};

ShareRows MakeShareRows(size_t count, unsigned ell,
                        const crypto::PaillierPublicKey& pub,
                        crypto::SecureRandom* rng) {
  ShareRows rows;
  rows.ell = ell;
  for (size_t i = 0; i < count; ++i) {
    const uint64_t secret = (i * 2654435761ULL) & ((uint64_t{1} << ell) - 1);
    auto shares = crypto::SplitShares2Ell(secret, 3, ell, rng);
    auto c = pub.EncryptU64(shares[2], rng);
    EXPECT_TRUE(c.ok());
    rows.secrets.push_back(secret);
    rows.plain0.push_back(shares[0]);
    rows.plain1.push_back(shares[1]);
    rows.cipher.push_back(std::move(c).value());
  }
  return rows;
}

// The server's reconstruction: packed batch decryption of the cipher
// column at PEOS's slot width, then the plaintext shares folded in.
std::vector<uint64_t> ReconstructPacked(
    const ShareRows& rows, const std::vector<crypto::PaillierCiphertext>& cs,
    unsigned slot_bits, const crypto::PaillierPrivateKey& priv) {
  const uint64_t mask = (uint64_t{1} << rows.ell) - 1;
  std::vector<uint64_t> enc(cs.size());
  EXPECT_TRUE(priv.DecryptPackedMod2EllBatch(cs.data(), cs.size(), slot_bits,
                                             rows.ell, enc.data())
                  .ok());
  std::vector<uint64_t> out(cs.size());
  for (size_t i = 0; i < cs.size(); ++i) {
    out[i] = (rows.plain0[i] + rows.plain1[i] + enc[i]) & mask;
  }
  return out;
}

TEST_F(PeosFailureTest, TamperedCiphertextCorruptsOnlyThatRow) {
  // Build a tiny EOS state, flip bits in one ciphertext, and check that
  // reconstruction still succeeds for all other rows.
  const unsigned ell = 16;
  std::vector<uint64_t> secrets = {111, 222, 333, 444};
  EosState state;
  state.plain.ell = ell;
  state.plain.columns.assign(2, std::vector<uint64_t>(secrets.size(), 0));
  state.cipher_column.resize(secrets.size());
  state.e_holder = 1;
  for (size_t i = 0; i < secrets.size(); ++i) {
    auto shares = crypto::SplitShares2Ell(secrets[i], 3, ell, rng_);
    state.plain.columns[0][i] = shares[0];
    state.plain.columns[1][i] = shares[1];
    auto c = keys_->pub.EncryptU64(shares[2], rng_);
    ASSERT_TRUE(c.ok());
    state.cipher_column[i] = std::move(c).value();
  }
  // Tamper: multiply row 2's ciphertext by Enc(7) (an adversarial +7).
  auto enc7 = keys_->pub.EncryptU64(7, rng_);
  ASSERT_TRUE(enc7.ok());
  state.cipher_column[2] = keys_->pub.Add(state.cipher_column[2], *enc7);

  std::vector<uint64_t> out(secrets.size());
  for (size_t i = 0; i < secrets.size(); ++i) {
    auto m = keys_->priv.DecryptMod2Ell(state.cipher_column[i], ell);
    ASSERT_TRUE(m.ok());
    out[i] = (state.plain.columns[0][i] + state.plain.columns[1][i] + *m) &
             0xFFFF;
  }
  EXPECT_EQ(out[0], 111u);
  EXPECT_EQ(out[1], 222u);
  EXPECT_EQ(out[2], 340u);  // 333 + 7: tampering shifts exactly one row
  EXPECT_EQ(out[3], 444u);
}

// The same tamper through the decryption RunPeos runs: packed batch
// decryption at PEOS's slot width, over three full pack groups and a
// ragged tail. A within-slot +7 stays inside its slot's headroom.
TEST_F(PeosFailureTest, TamperedCiphertextCorruptsOnlyThatRowPacked) {
  const unsigned ell = 16;
  const uint64_t mask = (uint64_t{1} << ell) - 1;
  const unsigned slot_bits = PeosPackedSlotBits(ell, 3);
  const size_t cap = keys_->priv.PackedSlotCapacity(slot_bits);
  ASSERT_GE(cap, 4u);
  const size_t count = 3 * cap + cap / 2;
  ShareRows rows = MakeShareRows(count, ell, keys_->pub, rng_);
  auto enc7 = keys_->pub.EncryptU64(7, rng_);
  ASSERT_TRUE(enc7.ok());
  for (size_t tampered_row : {size_t{0}, cap + cap / 2, 3 * cap - 1,
                              3 * cap + 1}) {
    std::vector<crypto::PaillierCiphertext> cs = rows.cipher;
    cs[tampered_row] = keys_->pub.Add(cs[tampered_row], *enc7);
    std::vector<uint64_t> out =
        ReconstructPacked(rows, cs, slot_bits, keys_->priv);
    for (size_t i = 0; i < count; ++i) {
      const uint64_t want =
          i == tampered_row ? (rows.secrets[i] + 7) & mask : rows.secrets[i];
      EXPECT_EQ(out[i], want) << "tampered " << tampered_row << " row " << i;
    }
  }
}

// An oversized plaintext breaks the packing's slot bound: it may corrupt
// its own pack group, but never a row of another group.
TEST_F(PeosFailureTest, OversizedPlaintextCorruptsOnlyItsPackGroup) {
  const unsigned ell = 16;
  const unsigned slot_bits = PeosPackedSlotBits(ell, 3);
  const size_t cap = keys_->priv.PackedSlotCapacity(slot_bits);
  ASSERT_GE(cap, 4u);
  const size_t count = 3 * cap + cap / 2;
  ShareRows rows = MakeShareRows(count, ell, keys_->pub, rng_);
  auto huge = keys_->pub.Encrypt(keys_->pub.n().Sub(crypto::BigInt(1)), rng_);
  ASSERT_TRUE(huge.ok());
  const size_t group_lo = cap, group_hi = 2 * cap;  // the second group
  for (size_t slot : {size_t{0}, cap / 2, cap - 1}) {
    std::vector<crypto::PaillierCiphertext> cs = rows.cipher;
    cs[group_lo + slot] = *huge;
    std::vector<uint64_t> out =
        ReconstructPacked(rows, cs, slot_bits, keys_->priv);
    for (size_t i = 0; i < count; ++i) {
      if (i >= group_lo && i < group_hi) continue;
      EXPECT_EQ(out[i], rows.secrets[i]) << "slot " << slot << " row " << i;
    }
  }
}

// Every key from key generation has a Montgomery context for N^2; a key
// without one (even N) is refused up front rather than computed with.
TEST_F(PeosFailureTest, KeyWithoutMontgomeryContextIsRefused) {
  const crypto::PaillierPublicKey even_key(crypto::BigInt(uint64_t{1000}));
  ASSERT_EQ(even_key.n2_ctx(), nullptr);
  auto c = even_key.EncryptU64(1, rng_);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kFailedPrecondition);

  EosState state;
  state.plain.ell = 8;
  state.plain.columns.assign(2, std::vector<uint64_t>(4, 0));
  state.cipher_column.assign(4, even_key.TrivialEncrypt(crypto::BigInt()));
  EosOptions opts;
  opts.public_key = &even_key;
  CostLedger ledger;
  EXPECT_EQ(RunEncryptedObliviousShuffle(&state, opts, rng_, &ledger).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PeosFailureTest, GarbageCiphertextRejectedAtDecrypt) {
  crypto::PaillierCiphertext garbage;
  garbage.value = keys_->pub.n_squared();  // out of range
  EXPECT_FALSE(keys_->priv.Decrypt(garbage).ok());
  garbage.value = crypto::BigInt(0);  // zero is never a valid ciphertext
  EXPECT_FALSE(keys_->priv.Decrypt(garbage).ok());
}

TEST_F(PeosFailureTest, CorruptedShareColumnYieldsInvalidReports) {
  // Run PEOS, but with an oracle whose domain leaves padding; corrupt
  // packed rows decode into the padding region and are counted invalid
  // rather than polluting the estimate.
  const uint64_t n = 300, d = 6;  // 3-bit ordinals, values 6,7 = padding
  ldp::Grr oracle(3.0, d);
  std::vector<uint64_t> values(n, 0);
  PeosConfig config;
  config.num_shufflers = 2;
  config.fake_reports = 0;
  config.paillier_bits = 256;
  crypto::SecureRandom rng(uint64_t{77});
  auto result = RunPeos(oracle, values, config, &rng);
  ASSERT_TRUE(result.ok());
  // Honest run: nothing invalid, estimate correct.
  EXPECT_EQ(result->reports_invalid, 0u);
  EXPECT_NEAR(result->estimates[0], 1.0, 0.15);
}

TEST_F(PeosFailureTest, ObliviousShuffleWithMismatchedColumnsFails) {
  ShareMatrix m;
  m.ell = 64;
  m.columns = {std::vector<uint64_t>(4, 0), std::vector<uint64_t>(4, 0)};
  EosState state;
  state.plain = m;
  state.cipher_column.resize(3);  // mismatch: 3 != 4
  state.e_holder = 0;
  EosOptions opts;
  opts.public_key = &keys_->pub;
  CostLedger ledger;
  EXPECT_FALSE(
      RunEncryptedObliviousShuffle(&state, opts, rng_, &ledger).ok());
}

TEST_F(PeosFailureTest, ParseCiphertextRejectsOversizedValue) {
  Bytes wire(keys_->pub.CiphertextBytes(), 0xFF);  // >= N^2
  EXPECT_FALSE(keys_->pub.ParseCiphertext(wire).ok());
}

}  // namespace
}  // namespace shuffle
}  // namespace shuffledp
