#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "crypto/paillier.h"
#include "crypto/secret_sharing.h"
#include "shuffle/oblivious_shuffle.h"
#include "util/thread_pool.h"

namespace shuffledp {
namespace shuffle {
namespace {

// Shared 256-bit test key (key generation dominates test time otherwise).
class EosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new crypto::SecureRandom(uint64_t{424242});
    auto kp = crypto::PaillierGenerateKeyPair(256, rng_);
    ASSERT_TRUE(kp.ok());
    keys_ = new crypto::PaillierKeyPair(std::move(kp).value());
    pool_ = new crypto::RandomizerPool(keys_->pub, 8, rng_);
  }
  static void TearDownTestSuite() {
    delete pool_;
    delete keys_;
    delete rng_;
    pool_ = nullptr;
    keys_ = nullptr;
    rng_ = nullptr;
  }

  // Builds an EOS state for `secrets`: r plaintext columns + encrypted
  // r-th share column (mirrors the PEOS user upload).
  static EosState MakeState(const std::vector<uint64_t>& secrets, uint32_t r,
                            unsigned ell) {
    EosState state;
    state.plain.ell = ell;
    state.plain.columns.assign(r,
                               std::vector<uint64_t>(secrets.size(), 0));
    state.cipher_column.resize(secrets.size());
    state.e_holder = r - 1;
    for (size_t i = 0; i < secrets.size(); ++i) {
      auto shares = crypto::SplitShares2Ell(secrets[i], r + 1, ell, rng_);
      for (uint32_t j = 0; j < r; ++j) state.plain.columns[j][i] = shares[j];
      auto c = keys_->pub.EncryptU64(shares[r], rng_);
      EXPECT_TRUE(c.ok());
      state.cipher_column[i] = std::move(c).value();
    }
    return state;
  }

  // Server-side reconstruction: plaintext columns + decrypted column.
  static std::vector<uint64_t> Reconstruct(const EosState& state,
                                           unsigned ell) {
    const uint64_t mask =
        ell >= 64 ? ~uint64_t{0} : ((uint64_t{1} << ell) - 1);
    std::vector<uint64_t> out = state.plain.Reconstruct();
    for (size_t i = 0; i < out.size(); ++i) {
      auto m = keys_->priv.DecryptMod2Ell(state.cipher_column[i], ell);
      EXPECT_TRUE(m.ok());
      out[i] = (out[i] + *m) & mask;
    }
    return out;
  }

  static crypto::SecureRandom* rng_;
  static crypto::PaillierKeyPair* keys_;
  static crypto::RandomizerPool* pool_;
};

crypto::SecureRandom* EosTest::rng_ = nullptr;
crypto::PaillierKeyPair* EosTest::keys_ = nullptr;
crypto::RandomizerPool* EosTest::pool_ = nullptr;

TEST_F(EosTest, PreservesMultisetWithPool) {
  std::vector<uint64_t> secrets = {11, 22, 33, 44, 55, 66, 77, 88};
  for (uint32_t r : {2u, 3u}) {
    EosState state = MakeState(secrets, r, 64);
    EosOptions opts;
    opts.public_key = &keys_->pub;
    opts.pool = pool_;
    CostLedger ledger;
    ASSERT_TRUE(
        RunEncryptedObliviousShuffle(&state, opts, rng_, &ledger).ok());
    auto out = Reconstruct(state, 64);
    auto sorted_in = secrets;
    std::sort(sorted_in.begin(), sorted_in.end());
    std::sort(out.begin(), out.end());
    EXPECT_EQ(out, sorted_in) << "r=" << r;
  }
}

TEST_F(EosTest, PreservesMultisetWithExactEncryption) {
  std::vector<uint64_t> secrets = {5, 6, 7, 8};
  EosState state = MakeState(secrets, 2, 64);
  EosOptions opts;
  opts.public_key = &keys_->pub;
  opts.pool = nullptr;  // fresh modexp per re-mask
  CostLedger ledger;
  ASSERT_TRUE(
      RunEncryptedObliviousShuffle(&state, opts, rng_, &ledger).ok());
  auto out = Reconstruct(state, 64);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<uint64_t>{5, 6, 7, 8}));
}

TEST_F(EosTest, SmallEllGroupWraps) {
  // ell = 16: shares and masks all wrap mod 2^16.
  std::vector<uint64_t> secrets = {0xFFFF, 0x1234, 0, 42};
  EosState state = MakeState(secrets, 3, 16);
  EosOptions opts;
  opts.public_key = &keys_->pub;
  opts.pool = pool_;
  CostLedger ledger;
  ASSERT_TRUE(
      RunEncryptedObliviousShuffle(&state, opts, rng_, &ledger).ok());
  auto out = Reconstruct(state, 16);
  auto sorted_in = secrets;
  std::sort(sorted_in.begin(), sorted_in.end());
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, sorted_in);
}

TEST_F(EosTest, CiphertextsAreRerandomizedEachRound) {
  std::vector<uint64_t> secrets = {9, 9, 9, 9};
  EosState state = MakeState(secrets, 2, 64);
  std::vector<crypto::BigInt> before;
  for (const auto& c : state.cipher_column) before.push_back(c.value);
  EosOptions opts;
  opts.public_key = &keys_->pub;
  opts.pool = pool_;
  CostLedger ledger;
  ASSERT_TRUE(
      RunEncryptedObliviousShuffle(&state, opts, rng_, &ledger).ok());
  // No post-shuffle ciphertext should equal any pre-shuffle one.
  for (const auto& c : state.cipher_column) {
    for (const auto& b : before) {
      EXPECT_NE(c.value, b);
    }
  }
}

TEST_F(EosTest, EHolderEndsAmongHiders) {
  std::vector<uint64_t> secrets(10, 1);
  EosState state = MakeState(secrets, 3, 64);
  EosOptions opts;
  opts.public_key = &keys_->pub;
  opts.pool = pool_;
  CostLedger ledger;
  ASSERT_TRUE(
      RunEncryptedObliviousShuffle(&state, opts, rng_, &ledger).ok());
  EXPECT_LT(state.e_holder, 3u);
}

TEST_F(EosTest, RejectsBadConfigurations) {
  EosOptions no_key;
  EosState state = MakeState({1, 2}, 2, 64);
  CostLedger ledger;
  EXPECT_FALSE(
      RunEncryptedObliviousShuffle(&state, no_key, rng_, &ledger).ok());

  EosOptions opts;
  opts.public_key = &keys_->pub;
  EosState bad_holder = MakeState({1, 2}, 2, 64);
  bad_holder.e_holder = 9;
  EXPECT_FALSE(
      RunEncryptedObliviousShuffle(&bad_holder, opts, rng_, &ledger).ok());

  EosState short_cipher = MakeState({1, 2, 3}, 2, 64);
  short_cipher.cipher_column.pop_back();
  EXPECT_FALSE(
      RunEncryptedObliviousShuffle(&short_cipher, opts, rng_, &ledger).ok());
}

TEST_F(EosTest, CommunicationIncludesCiphertextTraffic) {
  std::vector<uint64_t> secrets(20, 3);
  EosState state = MakeState(secrets, 3, 64);
  EosOptions opts;
  opts.public_key = &keys_->pub;
  opts.pool = pool_;
  CostLedger ledger;
  ASSERT_TRUE(
      RunEncryptedObliviousShuffle(&state, opts, rng_, &ledger).ok());
  // Each of the C(3,2)=3 rounds ships the n-ciphertext column once.
  uint64_t min_cipher_traffic =
      3ull * secrets.size() * keys_->pub.CiphertextBytes();
  EXPECT_GE(ledger.bytes_sent(Role::kShuffler), min_cipher_traffic);
}

// The post-EOS columns depend only on the input state and the protocol
// rng: never on whether a thread pool runs the rerandomization, on its
// size, or on which worker picks up which chunk. Several chunks per
// round make the scheduling visible; both re-mask modes are covered
// (the exact mode, a fresh modexp per row, over fewer rows).
TEST_F(EosTest, ColumnsBitwiseEqualAcrossPoolSizesAndRepeats) {
  std::vector<uint64_t> secrets(2100);
  for (size_t i = 0; i < secrets.size(); ++i) secrets[i] = i * 0x9E3779B9;
  const EosState full = MakeState(secrets, 3, 64);
  EosState short_input = full;
  for (auto& column : short_input.plain.columns) column.resize(1100);
  short_input.cipher_column.resize(1100);
  ThreadPool one(1), three(3), four(4);
  for (const crypto::RandomizerPool* masks :
       {static_cast<const crypto::RandomizerPool*>(pool_),
        static_cast<const crypto::RandomizerPool*>(nullptr)}) {
    const EosState& input = masks != nullptr ? full : short_input;
    std::vector<EosState> outputs;
    for (ThreadPool* threads : {static_cast<ThreadPool*>(nullptr), &one,
                                &three, &four, &four, &three}) {
      EosState state = input;
      EosOptions opts;
      opts.public_key = &keys_->pub;
      opts.pool = masks;
      opts.thread_pool = threads;
      crypto::SecureRandom rng(uint64_t{8080});
      CostLedger ledger;
      ASSERT_TRUE(
          RunEncryptedObliviousShuffle(&state, opts, &rng, &ledger).ok());
      outputs.push_back(std::move(state));
    }
    for (size_t k = 1; k < outputs.size(); ++k) {
      const std::string where = std::string(masks ? "pool" : "exact") +
                                " masks, run " + std::to_string(k);
      EXPECT_EQ(outputs[k].plain.columns, outputs[0].plain.columns) << where;
      EXPECT_EQ(outputs[k].e_holder, outputs[0].e_holder) << where;
      ASSERT_EQ(outputs[k].cipher_column.size(),
                outputs[0].cipher_column.size());
      size_t differing = 0;
      for (size_t i = 0; i < outputs[0].cipher_column.size(); ++i) {
        if (outputs[k].cipher_column[i].value !=
            outputs[0].cipher_column[i].value) {
          ++differing;
        }
      }
      EXPECT_EQ(differing, 0u) << where;
    }
  }
}

}  // namespace
}  // namespace shuffle
}  // namespace shuffledp
