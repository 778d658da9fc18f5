#include "shuffle/peos.h"

#include <gtest/gtest.h>

#include "ldp/grr.h"
#include "ldp/local_hash.h"

namespace shuffledp {
namespace shuffle {
namespace {

std::vector<uint64_t> SkewedValues(uint64_t n, uint64_t d) {
  std::vector<uint64_t> values(n);
  for (uint64_t i = 0; i < n; ++i) {
    values[i] = (i < n / 2) ? 0 : 1 + (i % (d - 1));
  }
  return values;
}

PeosConfig FastConfig(uint32_t r, uint64_t fakes) {
  PeosConfig config;
  config.num_shufflers = r;
  config.fake_reports = fakes;
  config.paillier_bits = 256;  // test-size keys
  config.use_randomizer_pool = true;
  return config;
}

TEST(PeosTest, EndToEndWithGrr) {
  const uint64_t n = 800, d = 8;
  ldp::Grr oracle(3.0, d);  // d = 8 is a power of two: padding-free
  auto values = SkewedValues(n, d);
  crypto::SecureRandom rng(uint64_t{1});
  auto result = RunPeos(oracle, values, FastConfig(3, 200), &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->reports_decoded, n + 200);
  EXPECT_EQ(result->reports_invalid, 0u);
  EXPECT_NEAR(result->estimates[0], 0.5, 0.15);
}

TEST(PeosTest, EndToEndWithGrrPaddedDomain) {
  // d = 6 is not a power of two: fake reports sometimes land in the
  // padding region [6, 8) and are dropped; the ordinal calibration keeps
  // the estimate unbiased.
  const uint64_t n = 800, d = 6;
  ldp::Grr oracle(3.0, d);
  auto values = SkewedValues(n, d);
  crypto::SecureRandom rng(uint64_t{2});
  auto result = RunPeos(oracle, values, FastConfig(3, 400), &rng);
  ASSERT_TRUE(result.ok());
  // ~400 * 2/8 = 100 fakes dropped in expectation.
  EXPECT_GT(result->reports_invalid, 40u);
  EXPECT_LT(result->reports_invalid, 180u);
  EXPECT_NEAR(result->estimates[0], 0.5, 0.15);
}

TEST(PeosTest, EndToEndWithSolh) {
  const uint64_t n = 700, d = 100;
  ldp::LocalHash oracle(3.0, d, 8, "SOLH");  // d' = 8: padding-free
  auto values = SkewedValues(n, d);
  crypto::SecureRandom rng(uint64_t{3});
  auto result = RunPeos(oracle, values, FastConfig(3, 150), &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->reports_decoded, n + 150);
  EXPECT_EQ(result->reports_invalid, 0u);
  EXPECT_NEAR(result->estimates[0], 0.5, 0.18);
}

TEST(PeosTest, ExactCryptoModeMatches) {
  const uint64_t n = 150, d = 4;
  ldp::Grr oracle(3.0, d);
  auto values = SkewedValues(n, d);
  crypto::SecureRandom rng(uint64_t{4});
  PeosConfig config = FastConfig(2, 30);
  config.use_randomizer_pool = false;  // fresh modexp everywhere
  auto result = RunPeos(oracle, values, config, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->reports_decoded, n + 30);
  EXPECT_NEAR(result->estimates[0], 0.5, 0.3);
}

TEST(PeosTest, SevenShufflers) {
  const uint64_t n = 120, d = 4;
  ldp::Grr oracle(3.0, d);
  auto values = SkewedValues(n, d);
  crypto::SecureRandom rng(uint64_t{5});
  auto result = RunPeos(oracle, values, FastConfig(7, 20), &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->reports_decoded, n + 20);
}

TEST(PeosTest, OneBiasedShufflerIsMaskedByHonestOnes) {
  // §VI-A2: a malicious shuffler biases its fake-report *shares*, but an
  // honest shuffler's uniform share keeps the reconstructed fake uniform.
  // With everyone holding value 0 and the poison targeting value 3, a
  // successful poison would inflate estimate[3]; masking keeps it ~0.
  const uint64_t n = 1000, d = 4;
  ldp::Grr oracle(4.0, d);
  std::vector<uint64_t> values(n, 0);
  crypto::SecureRandom rng(uint64_t{6});
  PeosConfig config = FastConfig(3, 500);
  config.behaviours = {PeosShufflerBehaviour::kBiasedFakeShares,
                       PeosShufflerBehaviour::kHonest,
                       PeosShufflerBehaviour::kHonest};
  config.poison_target_packed = 3;  // GRR ordinal of value 3
  auto result = RunPeos(oracle, values, config, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->estimates[3], 0.1);
  EXPECT_NEAR(result->estimates[0], 1.0, 0.1);
}

TEST(PeosTest, AllShufflersBiasedDoesPoison) {
  // If *every* shuffler colludes on the bias there is no honest mask —
  // the known limit of the §VI-A2 argument (requires >= 1 honest party).
  const uint64_t n = 1000, d = 4;
  ldp::Grr oracle(4.0, d);
  std::vector<uint64_t> values(n, 0);
  crypto::SecureRandom rng(uint64_t{7});
  PeosConfig config = FastConfig(3, 500);
  config.behaviours.assign(3, PeosShufflerBehaviour::kBiasedFakeShares);
  // Shares sum to 3 * target; pick target so the sum hits value 3 mod 4.
  config.poison_target_packed = 1;  // 3 * 1 = 3 mod 4
  auto result = RunPeos(oracle, values, config, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->estimates[3], 0.3);
}

TEST(PeosTest, CostAccounting) {
  const uint64_t n = 200, d = 8;
  ldp::Grr oracle(2.0, d);
  auto values = SkewedValues(n, d);
  crypto::SecureRandom rng(uint64_t{8});
  auto result = RunPeos(oracle, values, FastConfig(3, 50), &rng);
  ASSERT_TRUE(result.ok());
  const CostReport& c = result->costs;
  EXPECT_GT(c.user_comp_ms_per_user, 0.0);
  // User upload: (r-1) * 8B shares + one 512-bit (64B) ciphertext.
  EXPECT_EQ(c.user_comm_bytes_per_user, 2 * 8 + 64u);
  EXPECT_GT(c.aux_comp_seconds, 0.0);
  EXPECT_GT(c.aux_comm_mb_per_shuffler, 0.0);
  EXPECT_GT(c.server_comp_seconds, 0.0);
  EXPECT_GT(c.server_comm_mb, 0.0);
}

TEST(PeosTest, RejectsBadConfig) {
  ldp::Grr oracle(1.0, 4);
  crypto::SecureRandom rng(uint64_t{9});
  PeosConfig config = FastConfig(1, 0);  // r < 2
  EXPECT_FALSE(RunPeos(oracle, {1, 2}, config, &rng).ok());
  config = FastConfig(3, 0);
  EXPECT_FALSE(RunPeos(oracle, {}, config, &rng).ok());
  config.ell = 1;  // smaller than the oracle's ordinal width
  EXPECT_FALSE(RunPeos(oracle, {1, 2}, config, &rng).ok());

  // A key whose p cannot hold one packed slot is refused up front; there
  // is no wider decryption path to fall back to.
  ldp::LocalHash solh(4.0, 915, 16, "SOLH");
  ASSERT_GT(PeosPackedSlotBits(solh.PackedBits(), 3), 31u);
  config = FastConfig(3, 0);
  config.paillier_bits = 64;  // |p| = 32
  auto tiny_key = RunPeos(solh, {1, 2}, config, &rng);
  EXPECT_EQ(tiny_key.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace shuffle
}  // namespace shuffledp
