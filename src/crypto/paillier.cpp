#include "crypto/paillier.h"

#include <cassert>

namespace shuffledp {
namespace crypto {

namespace {

// Bits [lo_bit, lo_bit + width) of v as a word (width <= 64).
uint64_t ExtractBits(const BigInt& v, size_t lo_bit, unsigned width) {
  assert(width >= 1 && width <= 64);
  const size_t limb = lo_bit / 64;
  const size_t shift = lo_bit % 64;
  unsigned __int128 window =
      static_cast<unsigned __int128>(v.limb(limb)) |
      (static_cast<unsigned __int128>(v.limb(limb + 1)) << 64);
  uint64_t out = static_cast<uint64_t>(window >> shift);
  if (width == 64) return out;
  return out & ((uint64_t{1} << width) - 1);
}

std::shared_ptr<const MontgomeryCtx> MakeCtx(const BigInt& modulus) {
  auto ctx = MontgomeryCtx::Create(modulus);
  if (!ctx.ok()) return nullptr;
  return std::make_shared<const MontgomeryCtx>(std::move(ctx).value());
}

// Per-thread kernel workspace for the randomizer hot loop (one
// Rerandomize per ciphertext per EOS round): no scratch/mask allocation
// per call, only the returned BigInt's storage.
MontgomeryCtx::Scratch& TlsScratch(const MontgomeryCtx& ctx) {
  thread_local MontgomeryCtx::Scratch scratch;
  scratch.EnsureFor(ctx);
  return scratch;
}

std::vector<uint64_t>& TlsMaskBuf(size_t limbs) {
  thread_local std::vector<uint64_t> buf;
  if (buf.size() < limbs) buf.resize(limbs);
  return buf;
}

// The r of Enc(m; r): uniform in [1, N) with gcd(r, N) = 1 (overwhelming
// for random r).
BigInt DrawRandomizer(const BigInt& n, SecureRandom* rng) {
  BigInt r;
  do {
    r = BigInt::RandomBelow(n, rng);
  } while (r.IsZero() || BigInt::Gcd(r, n) != BigInt(1));
  return r;
}

// L_n(x) = (x - 1) / n. Pre: x == 1 mod n.
BigInt LFunction(const BigInt& x, const BigInt& n) {
  BigInt q;
  Status st = x.Sub(BigInt(1)).DivMod(n, &q, nullptr);
  assert(st.ok());
  (void)st;
  return q;
}

}  // namespace

PaillierPublicKey::PaillierPublicKey(BigInt n)
    : n_(std::move(n)), n_squared_(n_.Mul(n_)), n2_ctx_(MakeCtx(n_squared_)) {}

BigInt PaillierPublicKey::GToM(const BigInt& m_reduced) const {
  // g = N + 1: g^m = 1 + m*N mod N^2, and for m < N the integer 1 + m*N
  // is already < N^2 — no reduction needed.
  return BigInt(1).Add(m_reduced.Mul(n_));
}

Result<PaillierCiphertext> PaillierPublicKey::Encrypt(
    const BigInt& m, SecureRandom* rng) const {
  if (n2_ctx_ == nullptr) {
    return Status::FailedPrecondition(
        "Paillier public key has no Montgomery context (N must be odd, > 1)");
  }
  if (m >= n_) {
    return Status::InvalidArgument("Paillier plaintext >= N");
  }
  const BigInt r = DrawRandomizer(n_, rng);
  // c = (1 + m*N) * r^N mod N^2. The final combine goes through
  // BigInt::ModMul, which picks the division path for production-size
  // N^2 (>= Karatsuba threshold) — there the short 1 + m*N operand of a
  // share-sized plaintext makes the subquadratic multiply beat a
  // fixed-width CIOS pass — and cached Montgomery below it.
  return PaillierCiphertext{
      GToM(m).ModMul(n2_ctx_->ModExp(r, n_), n_squared_)};
}

Result<PaillierCiphertext> PaillierPublicKey::EncryptU64(
    uint64_t m, SecureRandom* rng) const {
  return Encrypt(BigInt(m), rng);
}

PaillierCiphertext PaillierPublicKey::Add(const PaillierCiphertext& a,
                                          const PaillierCiphertext& b) const {
  assert(n2_ctx_ != nullptr);
  return PaillierCiphertext{n2_ctx_->ModMul(a.value, b.value)};
}

PaillierCiphertext PaillierPublicKey::AddPlain(const PaillierCiphertext& c,
                                               const BigInt& m) const {
  // Generic ModMul on purpose: g^m = 1 + m*N is a short operand for the
  // small plaintext adjustments the protocols add, which the
  // subquadratic multiply exploits and a fixed-width CIOS pass cannot.
  BigInt g_to_m = GToM(m < n_ ? m : m.Mod(n_));
  return PaillierCiphertext{c.value.ModMul(g_to_m, n_squared_)};
}

PaillierCiphertext PaillierPublicKey::ScalarMult(const PaillierCiphertext& c,
                                                 const BigInt& k) const {
  assert(n2_ctx_ != nullptr);
  return PaillierCiphertext{n2_ctx_->ModExp(c.value, k)};
}

PaillierCiphertext PaillierPublicKey::TrivialEncrypt(const BigInt& m) const {
  return PaillierCiphertext{GToM(m < n_ ? m : m.Mod(n_))};
}

void PaillierPublicKey::ToMontCiphertext(
    const PaillierCiphertext& c, uint64_t* out,
    MontgomeryCtx::Scratch* scratch) const {
  assert(n2_ctx_ != nullptr);
  n2_ctx_->ToMontInto(c.value, out, scratch);
}

PaillierCiphertext PaillierPublicKey::FromMontCiphertext(
    const uint64_t* limbs, MontgomeryCtx::Scratch* scratch) const {
  assert(n2_ctx_ != nullptr);
  return PaillierCiphertext{n2_ctx_->FromMontLimbs(limbs, scratch)};
}

void PaillierPublicKey::AddPlainMontInto(
    uint64_t* c_mont, const BigInt& m,
    MontgomeryCtx::Scratch* scratch) const {
  assert(n2_ctx_ != nullptr);
  const MontgomeryCtx& ctx = *n2_ctx_;
  // g^m = 1 + mN enters the domain once (one CIOS pass against R^2),
  // then multiplies in with a second — no division anywhere.
  std::vector<uint64_t>& g_mont = TlsMaskBuf(ctx.limbs());
  ctx.ToMontInto(GToM(m < n_ ? m : m.Mod(n_)), g_mont.data(), scratch);
  ctx.MulInto(c_mont, g_mont.data(), c_mont, scratch);
}

void PaillierPublicKey::AddPlainMontManyInto(
    size_t k, uint64_t* const* c_mont, const BigInt* ms,
    MontgomeryCtx::Scratch* scratch) const {
  assert(n2_ctx_ != nullptr);
  const MontgomeryCtx& ctx = *n2_ctx_;
  const size_t n = ctx.limbs();
  constexpr size_t kLanes = MontgomeryCtx::kMaxBatchLanes;
  std::vector<uint64_t>& gbuf = TlsMaskBuf(kLanes * n);
  BigInt gs[kLanes];
  const BigInt* gptr[kLanes];
  uint64_t* glane[kLanes];
  for (size_t l = 0; l < kLanes; ++l) {
    gptr[l] = &gs[l];
    glane[l] = gbuf.data() + l * n;
  }
  for (size_t done = 0; done < k; done += kLanes) {
    const size_t kb = std::min(kLanes, k - done);
    for (size_t l = 0; l < kb; ++l) {
      const BigInt& m = ms[done + l];
      gs[l] = GToM(m < n_ ? m : m.Mod(n_));
    }
    // Both CIOS passes of the scalar kernel, k lanes wide: the g^m
    // operands enter the domain together, then multiply in together.
    ctx.ToMontManyInto(kb, gptr, glane, scratch);
    ctx.MulManyInto(kb, c_mont + done, glane, c_mont + done, scratch);
  }
}

Bytes PaillierPublicKey::SerializeCiphertext(
    const PaillierCiphertext& c) const {
  return c.value.ToBytesBigEndian(CiphertextBytes());
}

Result<PaillierCiphertext> PaillierPublicKey::ParseCiphertext(
    const Bytes& bytes) const {
  if (bytes.size() != CiphertextBytes()) {
    return Status::DataLoss("Paillier ciphertext has wrong length");
  }
  BigInt v = BigInt::FromBytesBigEndian(bytes);
  if (v >= n_squared_) {
    return Status::CryptoError("Paillier ciphertext out of range");
  }
  return PaillierCiphertext{std::move(v)};
}

Result<PaillierPrivateKey> PaillierPrivateKey::FromPrimes(const BigInt& p,
                                                          const BigInt& q) {
  if (p == q) return Status::InvalidArgument("Paillier: p == q");
  PaillierPrivateKey key;
  key.p_ = p;
  key.q_ = q;
  key.p_squared_ = p.Mul(p);
  key.q_squared_ = q.Mul(q);
  key.p_minus_1_ = p.Sub(BigInt(1));
  key.q_minus_1_ = q.Sub(BigInt(1));
  BigInt n = p.Mul(q);
  key.pub_ = PaillierPublicKey(n);
  key.p2_ctx_ = MakeCtx(key.p_squared_);
  key.q2_ctx_ = MakeCtx(key.q_squared_);
  if (key.p2_ctx_ == nullptr || key.q2_ctx_ == nullptr) {
    return Status::InvalidArgument("Paillier: primes must be odd and > 1");
  }

  // With g = N + 1:  g^{p-1} mod p^2 = 1 + (p-1)*N mod p^2, so
  // hp = ( L_p(g^{p-1} mod p^2) )^{-1} mod p.
  const BigInt g = n.Add(BigInt(1));
  // Key setup exponentiates by the secret p-1 / q-1: constant-time.
  BigInt gp = key.p2_ctx_->CtModExp(g, key.p_minus_1_);
  BigInt gq = key.q2_ctx_->CtModExp(g, key.q_minus_1_);
  auto hp = LFunction(gp, p).Mod(p).ModInverse(p);
  if (!hp.ok()) return Status::CryptoError("Paillier: hp not invertible");
  auto hq = LFunction(gq, q).Mod(q).ModInverse(q);
  if (!hq.ok()) return Status::CryptoError("Paillier: hq not invertible");
  key.hp_ = *hp;
  key.hq_ = *hq;

  auto q_inv = q.ModInverse(p);
  if (!q_inv.ok()) return Status::CryptoError("Paillier: q not invertible");
  key.q_sq_inv_mod_p_sq_ = *q_inv;  // actually q^{-1} mod p for Garner CRT
  return key;
}

BigInt PaillierPrivateKey::RecoverHalf(const MontgomeryCtx& ctx,
                                       const BigInt& c_reduced,
                                       const BigInt& prime,
                                       const BigInt& prime_minus_1,
                                       const BigInt& h) const {
  // p-1 / q-1 are equivalent to the factorization: constant-time ladder.
  BigInt cx = ctx.CtModExp(c_reduced, prime_minus_1);
  return LFunction(cx, prime).ModMul(h, prime);
}

BigInt PaillierPrivateKey::CrtCombine(const BigInt& mp,
                                      const BigInt& mq) const {
  // Garner recombination: m = mq + q * ((mp - mq) * q^{-1} mod p).
  BigInt mq_mod_p = mq.Mod(p_);
  BigInt diff =
      mp >= mq_mod_p ? mp.Sub(mq_mod_p) : mp.Add(p_).Sub(mq_mod_p);
  BigInt h = diff.ModMul(q_sq_inv_mod_p_sq_, p_);
  return mq.Add(q_.Mul(h));
}

Result<BigInt> PaillierPrivateKey::Decrypt(const PaillierCiphertext& c) const {
  if (p_.IsZero()) {
    return Status::FailedPrecondition("Paillier private key not initialized");
  }
  if (c.value >= pub_.n_squared() || c.value.IsZero()) {
    return Status::CryptoError("Paillier: ciphertext out of range");
  }
  // CRT decryption: m_p = L_p(c^{p-1} mod p^2) * hp mod p, same for q.
  BigInt mp = RecoverHalf(*p2_ctx_, c.value.Mod(p_squared_), p_,
                          p_minus_1_, hp_);
  BigInt mq = RecoverHalf(*q2_ctx_, c.value.Mod(q_squared_), q_,
                          q_minus_1_, hq_);
  return CrtCombine(mp, mq);
}

Result<BigInt> PaillierPrivateKey::DecryptDirect(
    const PaillierCiphertext& c) const {
  if (p_.IsZero()) {
    return Status::FailedPrecondition("Paillier private key not initialized");
  }
  if (c.value >= pub_.n_squared() || c.value.IsZero()) {
    return Status::CryptoError("Paillier: ciphertext out of range");
  }
  // m = L_N(c^lambda mod N^2) * mu mod N with lambda = lcm(p-1, q-1) and
  // mu = L_N(g^lambda mod N^2)^{-1} mod N. Recomputed per call — this is
  // the slow reference path for cross-checking CRT decryption.
  const BigInt& n = pub_.n();
  const BigInt& n2 = pub_.n_squared();
  BigInt lambda = BigInt::Lcm(p_minus_1_, q_minus_1_);
  BigInt g = n.Add(BigInt(1));
  auto mu = LFunction(g.ModExp(lambda, n2), n).Mod(n).ModInverse(n);
  if (!mu.ok()) return Status::CryptoError("Paillier: mu not invertible");
  return LFunction(c.value.ModExp(lambda, n2), n).ModMul(*mu, n);
}

Result<uint64_t> PaillierPrivateKey::DecryptMod2Ell(
    const PaillierCiphertext& c, unsigned ell) const {
  assert(ell >= 1 && ell <= 64);
  auto m = Decrypt(c);
  if (!m.ok()) return m.status();
  // m < N, little-endian limbs: limb 0 is exactly the low 64 bits.
  uint64_t low = m->limb(0);
  if (ell == 64) return low;
  return low & ((uint64_t{1} << ell) - 1);
}

size_t PaillierPrivateKey::PackedSlotCapacity(unsigned slot_bits) const {
  const size_t p_bits = p_.BitLength();
  if (slot_bits == 0 || p_bits < 2) return 0;
  // Packed plaintext must stay < 2^(|p| - 1) < p: then its residue mod p
  // — all the p^2 half recovers — is the packed integer itself.
  return (p_bits - 1) / slot_bits;
}

Status PaillierPrivateKey::CheckPacked(const PaillierCiphertext* cs,
                                       size_t count, unsigned slot_bits,
                                       unsigned ell) const {
  if (p_.IsZero()) {
    return Status::FailedPrecondition("Paillier private key not initialized");
  }
  if (ell < 1 || ell > 64 || slot_bits < ell) {
    return Status::InvalidArgument("Paillier: bad packed slot layout");
  }
  if (PackedSlotCapacity(slot_bits) == 0) {
    return Status::InvalidArgument("Paillier: packed slot wider than |p| - 1");
  }
  for (size_t i = 0; i < count; ++i) {
    if (cs[i].value.IsZero() || cs[i].value >= pub_.n_squared()) {
      return Status::CryptoError("Paillier: ciphertext out of range");
    }
  }
  return Status::OK();
}

void PaillierPrivateKey::DecryptPackedGroups(const PaillierCiphertext* cs,
                                             size_t groups, size_t len,
                                             unsigned slot_bits, unsigned ell,
                                             uint64_t* out) const {
  // Horner over the p^2 residue: acc = prod_i c_i^(2^(slot_bits * i)),
  // i.e. each slot's plaintext lands at bit offset slot_bits * i. Every
  // ciphertext enters the Montgomery domain once and the accumulators
  // stay there across the group; up to kMaxBatchLanes groups run as
  // interleaved lanes, and so do their secret-exponent modexps. Every
  // kernel returns canonical values, so a group's slots do not depend on
  // which lane block it lands in.
  const MontgomeryCtx& ctx = *p2_ctx_;
  const size_t n = ctx.limbs();
  constexpr size_t kLanes = MontgomeryCtx::kMaxBatchLanes;
  MontgomeryCtx::Scratch scratch(ctx);
  std::vector<uint64_t> accv(kLanes * n), civ(kLanes * n);
  std::vector<uint64_t> one(n, 0);
  one[0] = 1;
  uint64_t* acc[kLanes];
  uint64_t* ci[kLanes];
  const BigInt* vs[kLanes];
  for (size_t l = 0; l < kLanes; ++l) {
    acc[l] = accv.data() + l * n;
    ci[l] = civ.data() + l * n;
  }
  for (size_t g0 = 0; g0 < groups; g0 += kLanes) {
    const size_t kb = std::min(kLanes, groups - g0);
    for (size_t l = 0; l < kb; ++l) {
      vs[l] = &cs[(g0 + l) * len + len - 1].value;
    }
    ctx.ToMontManyInto(kb, vs, acc, &scratch);
    for (size_t pos = len - 1; pos-- > 0;) {
      for (unsigned b = 0; b < slot_bits; ++b) {
        ctx.SqrManyInto(kb, acc, acc, &scratch);
      }
      for (size_t l = 0; l < kb; ++l) {
        vs[l] = &cs[(g0 + l) * len + pos].value;
      }
      ctx.ToMontManyInto(kb, vs, ci, &scratch);
      ctx.MulManyInto(kb, acc, ci, acc, &scratch);
    }
    // c^(p-1) with the shared secret exponent, kb ct lanes at once; exit
    // the domain through the ct multiply-by-one.
    ctx.CtModExpManyInto(kb, acc, p_minus_1_, 0, acc, &scratch);
    for (size_t l = 0; l < kb; ++l) {
      ctx.CtMulInto(acc[l], one.data(), acc[l], &scratch);
      BigInt cx = BigInt::FromLimbsLittleEndian(
          std::vector<uint64_t>(acc[l], acc[l] + n));
      const BigInt packed = LFunction(cx, p_).ModMul(hp_, p_);
      // ExtractBits truncates to exactly ell bits (validated <= 64).
      uint64_t* group_out = out + (g0 + l) * len;
      for (size_t i = 0; i < len; ++i) {
        group_out[i] =
            ExtractBits(packed, i * static_cast<size_t>(slot_bits), ell);
      }
    }
  }
}

Status PaillierPrivateKey::DecryptPackedMod2Ell(const PaillierCiphertext* cs,
                                                size_t count,
                                                unsigned slot_bits,
                                                unsigned ell,
                                                uint64_t* out) const {
  if (count == 0) return Status::OK();
  SHUFFLEDP_RETURN_NOT_OK(CheckPacked(cs, count, slot_bits, ell));
  if (count > PackedSlotCapacity(slot_bits)) {
    return Status::InvalidArgument("Paillier: pack group exceeds capacity");
  }
  DecryptPackedGroups(cs, 1, count, slot_bits, ell, out);
  return Status::OK();
}

Status PaillierPrivateKey::DecryptPackedMod2EllBatch(
    const PaillierCiphertext* cs, size_t count, unsigned slot_bits,
    unsigned ell, uint64_t* out) const {
  if (count == 0) return Status::OK();
  SHUFFLEDP_RETURN_NOT_OK(CheckPacked(cs, count, slot_bits, ell));
  // Group boundaries are the multiples of the capacity the one-group
  // entry point would use; a short tail group runs on its own.
  const size_t cap = PackedSlotCapacity(slot_bits);
  const size_t nfull = count / cap;
  const size_t tail = count - nfull * cap;
  DecryptPackedGroups(cs, nfull, cap, slot_bits, ell, out);
  if (tail > 0) {
    DecryptPackedGroups(cs + nfull * cap, 1, tail, slot_bits, ell,
                        out + nfull * cap);
  }
  return Status::OK();
}

Result<PaillierKeyPair> PaillierGenerateKeyPair(size_t modulus_bits,
                                                SecureRandom* rng) {
  if (modulus_bits < 64) {
    return Status::InvalidArgument("Paillier modulus too small");
  }
  for (int attempt = 0; attempt < 64; ++attempt) {
    BigInt p = BigInt::GeneratePrime(modulus_bits / 2, rng);
    BigInt q = BigInt::GeneratePrime(modulus_bits - modulus_bits / 2, rng);
    if (p == q) continue;
    BigInt n = p.Mul(q);
    BigInt phi = p.Sub(BigInt(1)).Mul(q.Sub(BigInt(1)));
    if (BigInt::Gcd(n, phi) != BigInt(1)) continue;
    auto priv = PaillierPrivateKey::FromPrimes(p, q);
    if (!priv.ok()) continue;
    PaillierKeyPair kp;
    kp.pub = priv->public_key();
    kp.priv = std::move(priv).value();
    return kp;
  }
  return Status::Internal("Paillier key generation failed repeatedly");
}

RandomizerPool::RandomizerPool(const PaillierPublicKey& pub, size_t size,
                               SecureRandom* rng, ThreadPool* threads)
    : pub_(&pub) {
  assert(size >= 2);
  const MontgomeryCtx* ctx = pub.n2_ctx();
  assert(ctx != nullptr);
  // Enc(0; r) = r^N mod N^2. The r values come off `rng` serially, as
  // `size` Encrypt(0) calls would draw them; the modexps are independent.
  std::vector<BigInt> rs(size);
  for (BigInt& r : rs) r = DrawRandomizer(pub.n(), rng);
  pool_mont_.assign(size, std::vector<uint64_t>(ctx->limbs()));
  ForChunks(threads, 0, size, 1, [&](uint64_t lo, uint64_t hi) {
    MontgomeryCtx::Scratch scratch(*ctx);
    for (uint64_t i = lo; i < hi; ++i) {
      ctx->ToMontInto(ctx->ModExp(rs[i], pub.n()), pool_mont_[i].data(),
                      &scratch);
    }
  });
}

PaillierCiphertext RandomizerPool::Rerandomize(const PaillierCiphertext& c,
                                               SecureRandom* rng) const {
  const MontgomeryCtx& ctx = *pub_->n2_ctx();
  const size_t n = ctx.limbs();
  MontgomeryCtx::Scratch& scratch = TlsScratch(ctx);
  // Montgomery-form masks: each multiply into the plain-domain
  // ciphertext is a single fused CIOS pass, division- and
  // conversion-free.
  size_t i = rng->UniformU64(pool_mont_.size());
  size_t j = rng->UniformU64(pool_mont_.size());
  std::vector<uint64_t> acc(n);  // becomes the returned BigInt's storage
  for (size_t k = 0; k < n; ++k) acc[k] = c.value.limb(k);
  ctx.MulInto(acc.data(), pool_mont_[i].data(), acc.data(), &scratch);
  ctx.MulInto(acc.data(), pool_mont_[j].data(), acc.data(), &scratch);
  return PaillierCiphertext{BigInt::FromLimbsLittleEndian(std::move(acc))};
}

void RandomizerPool::RerandomizeMontInto(
    uint64_t* c_mont, SecureRandom* rng,
    MontgomeryCtx::Scratch* scratch) const {
  const MontgomeryCtx& ctx = *pub_->n2_ctx();
  // Same index draws as Rerandomize; MontMul of two Montgomery operands
  // stays Montgomery, so the column never leaves the domain.
  size_t i = rng->UniformU64(pool_mont_.size());
  size_t j = rng->UniformU64(pool_mont_.size());
  ctx.MulInto(c_mont, pool_mont_[i].data(), c_mont, scratch);
  ctx.MulInto(c_mont, pool_mont_[j].data(), c_mont, scratch);
}

void RandomizerPool::RerandomizeMontManyInto(
    size_t k, uint64_t* const* c_mont, SecureRandom* rng,
    MontgomeryCtx::Scratch* scratch) const {
  const MontgomeryCtx& ctx = *pub_->n2_ctx();
  constexpr size_t kLanes = MontgomeryCtx::kMaxBatchLanes;
  const uint64_t* mi[kLanes];
  const uint64_t* mj[kLanes];
  for (size_t done = 0; done < k; done += kLanes) {
    const size_t kb = std::min(kLanes, k - done);
    // The scalar call draws (i, j) per ciphertext; drawing lane by lane
    // keeps the rng sequence — and thus the column — bitwise identical
    // to k scalar calls.
    for (size_t l = 0; l < kb; ++l) {
      mi[l] = pool_mont_[rng->UniformU64(pool_mont_.size())].data();
      mj[l] = pool_mont_[rng->UniformU64(pool_mont_.size())].data();
    }
    ctx.MulManyInto(kb, c_mont + done, mi, c_mont + done, scratch);
    ctx.MulManyInto(kb, c_mont + done, mj, c_mont + done, scratch);
  }
}

PaillierCiphertext RandomizerPool::EncryptFast(const BigInt& m,
                                               SecureRandom* rng) const {
  return Rerandomize(pub_->TrivialEncrypt(m), rng);
}

PaillierCiphertext RandomizerPool::EncryptFastU64(uint64_t m,
                                                  SecureRandom* rng) const {
  return EncryptFast(BigInt(m), rng);
}

}  // namespace crypto
}  // namespace shuffledp
