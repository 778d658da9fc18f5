#include "crypto/paillier.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/thread_pool.h"

namespace shuffledp {
namespace crypto {
namespace {

// Shared small key pair (256-bit N) so the suite stays fast; one test
// exercises a production-size 1024-bit key.
class PaillierTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new SecureRandom(uint64_t{20200802});
    auto kp = PaillierGenerateKeyPair(256, rng_);
    ASSERT_TRUE(kp.ok());
    kp_ = new PaillierKeyPair(std::move(kp).value());
  }
  static void TearDownTestSuite() {
    delete kp_;
    delete rng_;
    kp_ = nullptr;
    rng_ = nullptr;
  }

  static SecureRandom* rng_;
  static PaillierKeyPair* kp_;
};

SecureRandom* PaillierTest::rng_ = nullptr;
PaillierKeyPair* PaillierTest::kp_ = nullptr;

TEST_F(PaillierTest, EncryptDecryptRoundTrip) {
  for (uint64_t m : {0ULL, 1ULL, 42ULL, 0xFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL}) {
    auto c = kp_->pub.EncryptU64(m, rng_);
    ASSERT_TRUE(c.ok());
    auto back = kp_->priv.Decrypt(*c);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->ToU64Saturating(), m);
  }
}

TEST_F(PaillierTest, EncryptionIsRandomized) {
  auto c1 = kp_->pub.EncryptU64(5, rng_);
  auto c2 = kp_->pub.EncryptU64(5, rng_);
  ASSERT_TRUE(c1.ok() && c2.ok());
  EXPECT_NE(c1->value, c2->value);
}

TEST_F(PaillierTest, HomomorphicAddition) {
  auto c1 = kp_->pub.EncryptU64(111, rng_);
  auto c2 = kp_->pub.EncryptU64(222, rng_);
  ASSERT_TRUE(c1.ok() && c2.ok());
  auto sum = kp_->pub.Add(*c1, *c2);
  auto back = kp_->priv.Decrypt(sum);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ToU64Saturating(), 333u);
}

TEST_F(PaillierTest, HomomorphicAddPlain) {
  auto c = kp_->pub.EncryptU64(100, rng_);
  ASSERT_TRUE(c.ok());
  auto shifted = kp_->pub.AddPlain(*c, BigInt(23));
  auto back = kp_->priv.Decrypt(shifted);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ToU64Saturating(), 123u);
}

TEST_F(PaillierTest, HomomorphicScalarMult) {
  auto c = kp_->pub.EncryptU64(7, rng_);
  ASSERT_TRUE(c.ok());
  auto scaled = kp_->pub.ScalarMult(*c, BigInt(9));
  auto back = kp_->priv.Decrypt(scaled);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ToU64Saturating(), 63u);
}

TEST_F(PaillierTest, AdditionWrapsModN) {
  // Enc(N-1) + Enc(2) = Enc(1).
  BigInt n_minus_1 = kp_->pub.n().Sub(BigInt(1));
  auto c1 = kp_->pub.Encrypt(n_minus_1, rng_);
  auto c2 = kp_->pub.EncryptU64(2, rng_);
  ASSERT_TRUE(c1.ok() && c2.ok());
  auto back = kp_->priv.Decrypt(kp_->pub.Add(*c1, *c2));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ToU64Saturating(), 1u);
}

TEST_F(PaillierTest, PlaintextTooLargeRejected) {
  EXPECT_FALSE(kp_->pub.Encrypt(kp_->pub.n(), rng_).ok());
}

TEST_F(PaillierTest, DecryptMod2EllRecoversShareSum) {
  // Simulates the PEOS share-sum recovery: k ell-bit shares summed
  // homomorphically, decrypted, reduced mod 2^ell.
  const unsigned ell = 32;
  const uint64_t mask = (uint64_t{1} << ell) - 1;
  uint64_t shares[] = {0xFFFFFFF0ULL, 0x12345678ULL, 0xDEADBEEFULL};
  uint64_t expected = 0;
  PaillierCiphertext acc = kp_->pub.TrivialEncrypt(BigInt(0));
  for (uint64_t s : shares) {
    expected = (expected + s) & mask;
    auto c = kp_->pub.EncryptU64(s, rng_);
    ASSERT_TRUE(c.ok());
    acc = kp_->pub.Add(acc, *c);
  }
  auto back = kp_->priv.DecryptMod2Ell(acc, ell);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, expected);
}

TEST_F(PaillierTest, DecryptMod2Ell64Bit) {
  const uint64_t a = 0xFFFFFFFFFFFFFFF0ULL, b = 0x20ULL;
  auto ca = kp_->pub.EncryptU64(a, rng_);
  auto cb = kp_->pub.EncryptU64(b, rng_);
  ASSERT_TRUE(ca.ok() && cb.ok());
  auto back = kp_->priv.DecryptMod2Ell(kp_->pub.Add(*ca, *cb), 64);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, a + b);  // wraps mod 2^64 exactly
}

TEST_F(PaillierTest, SerializeParseRoundTrip) {
  auto c = kp_->pub.EncryptU64(777, rng_);
  ASSERT_TRUE(c.ok());
  Bytes wire = kp_->pub.SerializeCiphertext(*c);
  EXPECT_EQ(wire.size(), kp_->pub.CiphertextBytes());
  auto parsed = kp_->pub.ParseCiphertext(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->value, c->value);
}

TEST_F(PaillierTest, ParseRejectsWrongLength) {
  EXPECT_FALSE(kp_->pub.ParseCiphertext(Bytes(3, 0)).ok());
}

TEST_F(PaillierTest, TrivialEncryptDecrypts) {
  auto back = kp_->priv.Decrypt(kp_->pub.TrivialEncrypt(BigInt(99)));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ToU64Saturating(), 99u);
}

TEST_F(PaillierTest, RandomizerPoolPreservesPlaintext) {
  RandomizerPool pool(kp_->pub, 8, rng_);
  auto c = kp_->pub.EncryptU64(31337, rng_);
  ASSERT_TRUE(c.ok());
  auto rr = pool.Rerandomize(*c, rng_);
  EXPECT_NE(rr.value, c->value);  // ciphertext changes
  auto back = kp_->priv.Decrypt(rr);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ToU64Saturating(), 31337u);  // plaintext preserved
}

TEST_F(PaillierTest, RandomizerPoolFastEncrypt) {
  RandomizerPool pool(kp_->pub, 8, rng_);
  auto c = pool.EncryptFastU64(2468, rng_);
  auto back = kp_->priv.Decrypt(c);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ToU64Saturating(), 2468u);
}

TEST_F(PaillierTest, HomomorphismRandomizedProperty) {
  // Dec(Enc(a) (+) Enc(b)) == a + b mod N for random and extreme a, b.
  const BigInt n = kp_->pub.n();
  std::vector<BigInt> values = {BigInt(), BigInt(1), n.Sub(BigInt(1))};
  for (int i = 0; i < 5; ++i) {
    values.push_back(BigInt::RandomBelow(n, rng_));
  }
  for (const BigInt& a : values) {
    for (const BigInt& b : values) {
      auto ca = kp_->pub.Encrypt(a, rng_);
      auto cb = kp_->pub.Encrypt(b, rng_);
      ASSERT_TRUE(ca.ok() && cb.ok());
      auto sum = kp_->priv.Decrypt(kp_->pub.Add(*ca, *cb));
      ASSERT_TRUE(sum.ok());
      EXPECT_EQ(*sum, a.Add(b).Mod(n));
    }
  }
}

TEST_F(PaillierTest, ExtremePlaintextsRoundTrip) {
  // m = 0 and m = N - 1 exactly.
  for (const BigInt& m : {BigInt(), kp_->pub.n().Sub(BigInt(1))}) {
    auto c = kp_->pub.Encrypt(m, rng_);
    ASSERT_TRUE(c.ok());
    auto back = kp_->priv.Decrypt(*c);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, m);
  }
}

TEST_F(PaillierTest, CrtMatchesDirectDecryption) {
  for (int i = 0; i < 4; ++i) {
    BigInt m = BigInt::RandomBelow(kp_->pub.n(), rng_);
    auto c = kp_->pub.Encrypt(m, rng_);
    ASSERT_TRUE(c.ok());
    auto crt = kp_->priv.Decrypt(*c);
    auto direct = kp_->priv.DecryptDirect(*c);
    ASSERT_TRUE(crt.ok() && direct.ok());
    EXPECT_EQ(*crt, *direct);
    EXPECT_EQ(*crt, m);
  }
  // Also after homomorphic combination.
  auto c1 = kp_->pub.EncryptU64(12345, rng_);
  auto c2 = kp_->pub.EncryptU64(67890, rng_);
  ASSERT_TRUE(c1.ok() && c2.ok());
  auto combined = kp_->pub.ScalarMult(kp_->pub.Add(*c1, *c2), BigInt(3));
  auto crt = kp_->priv.Decrypt(combined);
  auto direct = kp_->priv.DecryptDirect(combined);
  ASSERT_TRUE(crt.ok() && direct.ok());
  EXPECT_EQ(*crt, *direct);
  EXPECT_EQ(crt->ToU64Saturating(), (12345u + 67890u) * 3u);
}

TEST_F(PaillierTest, PackedDecryptionMatchesPerRow) {
  SecureRandom data_rng(uint64_t{99});
  for (unsigned ell : {8u, 13u, 36u}) {
    const uint64_t mask = (uint64_t{1} << ell) - 1;
    for (unsigned slack : {0u, 3u}) {
      const unsigned slot_bits = ell + slack + 1;
      const size_t cap = kp_->priv.PackedSlotCapacity(slot_bits);
      ASSERT_GE(cap, 1u);
      for (size_t count : {size_t{1}, std::min<size_t>(3, cap), cap}) {
        std::vector<PaillierCiphertext> cs(count);
        std::vector<uint64_t> expect(count);
        for (size_t i = 0; i < count; ++i) {
          uint64_t v = data_rng.NextU64() & mask;
          expect[i] = v;
          auto c = kp_->pub.EncryptU64(v, rng_);
          ASSERT_TRUE(c.ok());
          cs[i] = std::move(c).value();
        }
        std::vector<uint64_t> got(count, ~uint64_t{0});
        ASSERT_TRUE(kp_->priv
                        .DecryptPackedMod2Ell(cs.data(), count, slot_bits,
                                              ell, got.data())
                        .ok());
        for (size_t i = 0; i < count; ++i) {
          auto per_row = kp_->priv.DecryptMod2Ell(cs[i], ell);
          ASSERT_TRUE(per_row.ok());
          EXPECT_EQ(got[i], *per_row) << "slot " << i;
          EXPECT_EQ(got[i], expect[i]) << "slot " << i;
        }
      }
    }
  }
}

TEST_F(PaillierTest, PackedDecryptionHandlesEosStyleAdjustments) {
  // Mimic the PEOS pipeline: the encrypted share accumulates a few more
  // ell-bit plaintext additions (one per EOS round) plus rerandomization;
  // the slot headroom must absorb the integer growth.
  const unsigned ell = 16;
  const uint64_t mask = (uint64_t{1} << ell) - 1;
  const unsigned rounds = 3;
  unsigned extra = 0;
  while ((1u << extra) < rounds + 1) ++extra;
  const unsigned slot_bits = ell + extra + 1;
  RandomizerPool pool(kp_->pub, 4, rng_);
  SecureRandom data_rng(uint64_t{1234});

  const size_t count =
      std::min<size_t>(kp_->priv.PackedSlotCapacity(slot_bits), 7);
  std::vector<PaillierCiphertext> cs(count);
  std::vector<uint64_t> expect(count);
  for (size_t i = 0; i < count; ++i) {
    uint64_t sum = data_rng.NextU64() & mask;
    cs[i] = pool.EncryptFastU64(sum, rng_);
    for (unsigned r = 0; r < rounds; ++r) {
      uint64_t adj = data_rng.NextU64() & mask;
      sum = (sum + adj) & mask;
      cs[i] = pool.Rerandomize(kp_->pub.AddPlain(cs[i], BigInt(adj)), rng_);
    }
    expect[i] = sum;
  }
  std::vector<uint64_t> got(count);
  ASSERT_TRUE(kp_->priv
                  .DecryptPackedMod2Ell(cs.data(), count, slot_bits, ell,
                                        got.data())
                  .ok());
  EXPECT_EQ(got, expect);
}

TEST_F(PaillierTest, PackedDecryptionRejectsBadLayouts) {
  auto c = kp_->pub.EncryptU64(1, rng_);
  ASSERT_TRUE(c.ok());
  std::vector<PaillierCiphertext> cs(
      kp_->priv.PackedSlotCapacity(16) + 1, *c);
  std::vector<uint64_t> out(cs.size());
  // Over capacity.
  EXPECT_FALSE(kp_->priv
                   .DecryptPackedMod2Ell(cs.data(), cs.size(), 16, 16,
                                         out.data())
                   .ok());
  // slot_bits < ell and ell out of range.
  EXPECT_FALSE(
      kp_->priv.DecryptPackedMod2Ell(cs.data(), 1, 8, 16, out.data()).ok());
  EXPECT_FALSE(
      kp_->priv.DecryptPackedMod2Ell(cs.data(), 1, 70, 65, out.data()).ok());
  // count == 0 is a no-op.
  EXPECT_TRUE(
      kp_->priv.DecryptPackedMod2Ell(cs.data(), 0, 16, 16, out.data()).ok());
}

// The Montgomery-resident rerandomize chain (the EOS ciphertext column)
// against the per-round plain-domain path: identically seeded rngs must
// yield bitwise-identical ciphertexts after every round of
// AddPlain + Rerandomize — the domain residency is a representation
// change only, never a value change.
TEST_F(PaillierTest, MontResidentRerandomizeChainMatchesPerRoundPath) {
  const MontgomeryCtx* ctx = kp_->pub.n2_ctx();
  ASSERT_NE(ctx, nullptr);
  SecureRandom pool_rng(uint64_t{777});
  RandomizerPool pool(kp_->pub, 8, &pool_rng);

  auto start = kp_->pub.EncryptU64(123456789, rng_);
  ASSERT_TRUE(start.ok());

  // Plain-domain reference: the exact sequence the pre-resident EOS
  // loop ran once per C(r, t) round.
  const int kRounds = 12;
  SecureRandom plain_rng(uint64_t{4242});
  PaillierCiphertext plain = *start;
  uint64_t sum = 123456789;
  for (int round = 0; round < kRounds; ++round) {
    const uint64_t adjust = 0x9E37 + static_cast<uint64_t>(round);
    sum += adjust;
    plain = kp_->pub.AddPlain(plain, BigInt(adjust));
    plain = pool.Rerandomize(plain, &plain_rng);
  }

  // Montgomery-resident chain: enter once, stay, leave once.
  SecureRandom mont_rng(uint64_t{4242});
  MontgomeryCtx::Scratch scratch(*ctx);
  std::vector<uint64_t> resident(ctx->limbs());
  kp_->pub.ToMontCiphertext(*start, resident.data(), &scratch);
  for (int round = 0; round < kRounds; ++round) {
    const uint64_t adjust = 0x9E37 + static_cast<uint64_t>(round);
    kp_->pub.AddPlainMontInto(resident.data(), BigInt(adjust), &scratch);
    pool.RerandomizeMontInto(resident.data(), &mont_rng, &scratch);
  }
  PaillierCiphertext mont =
      kp_->pub.FromMontCiphertext(resident.data(), &scratch);

  EXPECT_EQ(mont.value, plain.value);  // bitwise, not just Dec-equal
  auto decrypted = kp_->priv.DecryptMod2Ell(mont, 64);
  ASSERT_TRUE(decrypted.ok());
  EXPECT_EQ(*decrypted, sum);
}

// Multi-group batched packed decryption against the one-group-at-a-time
// scalar entry point: results must be bitwise identical for counts that
// exercise full lane blocks, ragged lane tails, and a sub-capacity tail
// group, on every available Montgomery backend.
TEST_F(PaillierTest, DecryptPackedBatchBitwiseEqualsScalarLoop) {
  SecureRandom data_rng(uint64_t{5150});
  std::vector<MontBackend> backends = {MontBackend::kPortable};
  if (BestMontBackend() == MontBackend::kAvx2) {
    backends.push_back(MontBackend::kAvx2);
  }
  const unsigned ell = 16;
  const unsigned slot_bits = ell + 3;
  const uint64_t mask = (uint64_t{1} << ell) - 1;
  const size_t cap = kp_->priv.PackedSlotCapacity(slot_bits);
  ASSERT_GE(cap, 2u);
  // 11 full groups (one full 8-lane block + 3-lane tail) + partial group.
  const size_t count = 11 * cap + cap / 2;
  std::vector<PaillierCiphertext> cs(count);
  for (size_t i = 0; i < count; ++i) {
    auto c = kp_->pub.EncryptU64(data_rng.NextU64() & mask, rng_);
    ASSERT_TRUE(c.ok());
    cs[i] = std::move(c).value();
  }
  // Scalar reference: one group per call.
  std::vector<uint64_t> want(count);
  for (size_t at = 0; at < count; at += cap) {
    const size_t g = std::min(cap, count - at);
    ASSERT_TRUE(kp_->priv
                    .DecryptPackedMod2Ell(cs.data() + at, g, slot_bits, ell,
                                          want.data() + at)
                    .ok());
  }
  for (MontBackend backend : backends) {
    MontBackend prev = ActiveMontBackend();
    SetMontBackend(backend);
    std::vector<uint64_t> got(count, ~uint64_t{0});
    Status st = kp_->priv.DecryptPackedMod2EllBatch(cs.data(), count,
                                                    slot_bits, ell,
                                                    got.data());
    SetMontBackend(prev);
    ASSERT_TRUE(st.ok()) << MontBackendName(backend);
    EXPECT_EQ(got, want) << MontBackendName(backend);
  }
}

// Lane-blocked rerandomization with an identically seeded rng must be
// bitwise identical to k sequential RerandomizeMontInto calls (the batch
// draws pool indices in the same lane order).
TEST_F(PaillierTest, RerandomizeMontManyBitwiseEqualsScalarSeeded) {
  const MontgomeryCtx* ctx = kp_->pub.n2_ctx();
  ASSERT_NE(ctx, nullptr);
  const size_t n = ctx->limbs();
  SecureRandom pool_rng(uint64_t{808});
  RandomizerPool pool(kp_->pub, 8, &pool_rng);
  MontgomeryCtx::Scratch scratch(*ctx);
  for (size_t k : {1u, 5u, 8u, 13u}) {
    std::vector<std::vector<uint64_t>> batch(k), scalar(k);
    for (size_t l = 0; l < k; ++l) {
      auto c = kp_->pub.EncryptU64(1000 + l, rng_);
      ASSERT_TRUE(c.ok());
      batch[l].resize(n);
      kp_->pub.ToMontCiphertext(*c, batch[l].data(), &scratch);
      scalar[l] = batch[l];
    }
    SecureRandom rng_batch(uint64_t{31 + k});
    SecureRandom rng_scalar(uint64_t{31 + k});
    std::vector<uint64_t*> rows(k);
    for (size_t l = 0; l < k; ++l) rows[l] = batch[l].data();
    pool.RerandomizeMontManyInto(k, rows.data(), &rng_batch, &scratch);
    for (size_t l = 0; l < k; ++l) {
      pool.RerandomizeMontInto(scalar[l].data(), &rng_scalar, &scratch);
    }
    for (size_t l = 0; l < k; ++l) {
      EXPECT_EQ(batch[l], scalar[l]) << "k=" << k << " lane=" << l;
      // Still decrypts to the original plaintext.
      auto back = kp_->priv.Decrypt(
          kp_->pub.FromMontCiphertext(batch[l].data(), &scratch));
      ASSERT_TRUE(back.ok());
      EXPECT_EQ(back->ToU64Saturating(), 1000 + l);
    }
  }
}

// Batched plaintext addition against the scalar per-row path.
TEST_F(PaillierTest, AddPlainMontManyBitwiseEqualsScalar) {
  const MontgomeryCtx* ctx = kp_->pub.n2_ctx();
  ASSERT_NE(ctx, nullptr);
  const size_t n = ctx->limbs();
  MontgomeryCtx::Scratch scratch(*ctx);
  const size_t k = 11;  // 8-lane block + tail
  std::vector<std::vector<uint64_t>> batch(k), scalar(k);
  std::vector<BigInt> ms;
  ms.push_back(BigInt());  // zero adjustment lane
  for (size_t l = 1; l < k; ++l) {
    ms.push_back(BigInt::RandomBelow(kp_->pub.n(), rng_));
  }
  std::vector<uint64_t> expect(k);
  for (size_t l = 0; l < k; ++l) {
    auto c = kp_->pub.EncryptU64(l * 7, rng_);
    ASSERT_TRUE(c.ok());
    batch[l].resize(n);
    kp_->pub.ToMontCiphertext(*c, batch[l].data(), &scratch);
    scalar[l] = batch[l];
  }
  std::vector<uint64_t*> rows(k);
  for (size_t l = 0; l < k; ++l) rows[l] = batch[l].data();
  kp_->pub.AddPlainMontManyInto(k, rows.data(), ms.data(), &scratch);
  for (size_t l = 0; l < k; ++l) {
    kp_->pub.AddPlainMontInto(scalar[l].data(), ms[l], &scratch);
    EXPECT_EQ(batch[l], scalar[l]) << "lane=" << l;
    auto back = kp_->priv.Decrypt(
        kp_->pub.FromMontCiphertext(batch[l].data(), &scratch));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, BigInt(l * 7).Add(ms[l]).Mod(kp_->pub.n()));
  }
}

// The constant-time decryption exponentiations compute the same values
// as the variable-time reference path (DecryptDirect) end to end.
TEST_F(PaillierTest, CtDecryptionAgreesWithDirectReference) {
  for (int i = 0; i < 6; ++i) {
    BigInt m = BigInt::RandomBelow(kp_->pub.n(), rng_);
    auto c = kp_->pub.Encrypt(m, rng_);
    ASSERT_TRUE(c.ok());
    auto crt = kp_->priv.Decrypt(*c);      // ct CRT ladders
    auto direct = kp_->priv.DecryptDirect(*c);  // variable-time lambda path
    ASSERT_TRUE(crt.ok() && direct.ok());
    EXPECT_EQ(*crt, *direct);
    EXPECT_EQ(*crt, m);
  }
}

// Packed decryption at full capacity with every slot at its largest
// legal value, against the lambda-path reference (DecryptDirect shares
// no code with the p^2 half). Even slots carry the largest post-EOS
// plaintext — an ell-bit share plus R = 3 ell-bit adjustments, each
// followed by a rerandomization — and odd slots 2^slot_bits - 1, so any
// carry across a slot boundary or a packed value at or above p shows.
TEST(PaillierPackedOracleTest, FullCapacityMaximalSlotsMatchDirectDecryption) {
  SecureRandom rng(uint64_t{16016});
  const unsigned kRounds = 3;
  for (size_t bits : {size_t{256}, size_t{512}, size_t{1024}}) {
    auto kp = PaillierGenerateKeyPair(bits, &rng);
    ASSERT_TRUE(kp.ok());
    RandomizerPool pool(kp->pub, 4, &rng);
    for (unsigned ell : {16u, 37u, 64u}) {
      const unsigned slot_bits = ell + 3;  // PEOS sizing for R = 3
      const size_t cap = kp->priv.PackedSlotCapacity(slot_bits);
      ASSERT_GE(cap, 1u) << bits << "-bit key, slot " << slot_bits;
      const BigInt share_max = BigInt(1).ShiftLeft(ell).Sub(BigInt(1));
      const BigInt slot_max = BigInt(1).ShiftLeft(slot_bits).Sub(BigInt(1));
      std::vector<PaillierCiphertext> cs(cap);
      std::vector<uint64_t> want(cap);
      for (size_t i = 0; i < cap; ++i) {
        if (i % 2 == 0) {
          auto c = kp->pub.Encrypt(share_max, &rng);
          ASSERT_TRUE(c.ok());
          cs[i] = *c;
          for (unsigned r = 0; r < kRounds; ++r) {
            cs[i] = pool.Rerandomize(kp->pub.AddPlain(cs[i], share_max), &rng);
          }
        } else {
          auto c = kp->pub.Encrypt(slot_max, &rng);
          ASSERT_TRUE(c.ok());
          cs[i] = *c;
        }
        auto direct = kp->priv.DecryptDirect(cs[i]);
        ASSERT_TRUE(direct.ok());
        ASSERT_EQ(*direct, i % 2 == 0
                               ? share_max.Mul(BigInt(kRounds + 1))
                               : slot_max);
        want[i] = ell == 64 ? direct->limb(0)
                            : direct->limb(0) & ((uint64_t{1} << ell) - 1);
      }
      std::vector<uint64_t> got(cap, 0), got_batch(cap, 0);
      ASSERT_TRUE(kp->priv
                      .DecryptPackedMod2Ell(cs.data(), cap, slot_bits, ell,
                                            got.data())
                      .ok());
      ASSERT_TRUE(kp->priv
                      .DecryptPackedMod2EllBatch(cs.data(), cap, slot_bits,
                                                 ell, got_batch.data())
                      .ok());
      EXPECT_EQ(got, want) << bits << "-bit key, ell " << ell;
      EXPECT_EQ(got_batch, want) << bits << "-bit key, ell " << ell;
    }
  }
}

// The capacity is bounded by p, not N: a key built from unbalanced
// primes packs floor((|p| - 1) / slot_bits) slots for every slot width,
// and widths that leave no slot below p are refused — there is no
// fallback to a CRT decryption over both halves.
TEST(PaillierPackedOracleTest, CapacityFitsBelowPAndWiderSlotsAreRejected) {
  SecureRandom rng(uint64_t{4711});
  const BigInt p = BigInt::GeneratePrime(96, &rng);
  const BigInt q = BigInt::GeneratePrime(160, &rng);
  auto priv = PaillierPrivateKey::FromPrimes(p, q);
  ASSERT_TRUE(priv.ok());
  const size_t p_bits = p.BitLength();
  ASSERT_EQ(p_bits, 96u);
  for (unsigned s = 1; s <= p_bits + 8; ++s) {
    const size_t cap = priv->PackedSlotCapacity(s);
    EXPECT_LE(cap * s, p_bits - 1) << "slot " << s;
    EXPECT_GT((cap + 1) * s, p_bits - 1) << "slot " << s;
  }
  EXPECT_EQ(priv->PackedSlotCapacity(0), 0u);

  auto c = priv->public_key().EncryptU64(5, &rng);
  ASSERT_TRUE(c.ok());
  uint64_t out = 0;
  // The widest legal slot: one slot of |p| - 1 bits.
  ASSERT_TRUE(priv->DecryptPackedMod2Ell(&*c, 1, p_bits - 1, 64, &out).ok());
  EXPECT_EQ(out, 5u);
  for (unsigned s : {static_cast<unsigned>(p_bits),
                     static_cast<unsigned>(p_bits + 40)}) {
    Status st = priv->DecryptPackedMod2Ell(&*c, 1, s, 64, &out);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << "slot " << s;
    st = priv->DecryptPackedMod2EllBatch(&*c, 1, s, 64, &out);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << "slot " << s;
  }
}

// Building the pool on worker threads changes nothing: the r values
// come off the rng serially in one order, so pools built serially, on
// one worker and on four draw identical masks and leave the rng in the
// same state.
TEST_F(PaillierTest, RandomizerPoolMasksIndependentOfThreads) {
  ThreadPool one(1), four(4);
  std::vector<std::vector<BigInt>> outputs;
  std::vector<uint64_t> after;
  for (ThreadPool* threads : {static_cast<ThreadPool*>(nullptr), &one, &four}) {
    SecureRandom build_rng(uint64_t{60606});
    RandomizerPool pool(kp_->pub, 16, &build_rng, threads);
    after.push_back(build_rng.NextU64());
    // Rerandomizing 1 = Enc(0; 1) exposes the pairwise mask products;
    // 256 draws over 16 masks touch every mask with overwhelming
    // probability.
    SecureRandom draw_rng(uint64_t{70707});
    std::vector<BigInt> masks;
    for (int i = 0; i < 256; ++i) {
      masks.push_back(
          pool.Rerandomize(kp_->pub.TrivialEncrypt(BigInt()), &draw_rng).value);
    }
    outputs.push_back(std::move(masks));
  }
  EXPECT_EQ(outputs[0], outputs[1]);
  EXPECT_EQ(outputs[0], outputs[2]);
  EXPECT_EQ(after[0], after[1]);
  EXPECT_EQ(after[0], after[2]);

  // The masks are the Enc(0) values of 16 fresh Encrypt calls on the
  // same rng, multiplied pairwise in the order the draws pick them.
  SecureRandom build_rng(uint64_t{60606});
  std::vector<BigInt> enc_zero;
  for (int i = 0; i < 16; ++i) {
    auto c = kp_->pub.Encrypt(BigInt(), &build_rng);
    ASSERT_TRUE(c.ok());
    enc_zero.push_back(c->value);
  }
  EXPECT_EQ(build_rng.NextU64(), after[0]);
  SecureRandom draw_rng(uint64_t{70707});
  for (int i = 0; i < 256; ++i) {
    const BigInt& a = enc_zero[draw_rng.UniformU64(16)];
    const BigInt& b = enc_zero[draw_rng.UniformU64(16)];
    EXPECT_EQ(outputs[0][i], a.ModMul(b, kp_->pub.n_squared())) << i;
  }
}

TEST(PaillierKeyGenTest, ProductionSizeKeyWorks) {
  SecureRandom rng(uint64_t{777001});
  auto kp = PaillierGenerateKeyPair(1024, &rng);
  ASSERT_TRUE(kp.ok());
  EXPECT_GE(kp->pub.n().BitLength(), 1023u);
  auto c = kp->pub.EncryptU64(123456789, &rng);
  ASSERT_TRUE(c.ok());
  auto back = kp->priv.Decrypt(*c);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ToU64Saturating(), 123456789u);
}

TEST(PaillierKeyGenTest, TooSmallModulusRejected) {
  SecureRandom rng(uint64_t{1});
  EXPECT_FALSE(PaillierGenerateKeyPair(32, &rng).ok());
}

}  // namespace
}  // namespace crypto
}  // namespace shuffledp
