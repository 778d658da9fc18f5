// Arbitrary-precision unsigned integer arithmetic.
//
// Built from scratch as the substrate for the Paillier additively-
// homomorphic encryption used by PEOS (the paper instantiates its AHE with
// DGK at 3072-bit ciphertexts; Paillier with a final mod-2^ell reduction is
// an exact behavioural substitute, see crypto/paillier.h).
//
// Representation: little-endian vector of 64-bit limbs, normalized so the
// most significant limb is nonzero (zero is the empty vector). All values
// are non-negative; subtraction of a larger value is a checked error.
//
// Algorithms: schoolbook + Karatsuba multiplication, Knuth Algorithm D
// division, 4-bit fixed-window modular exponentiation, binary extended GCD
// for modular inverse, Miller-Rabin primality with deterministic small-prime
// sieving for candidate generation.

#ifndef SHUFFLEDP_CRYPTO_BIGINT_H_
#define SHUFFLEDP_CRYPTO_BIGINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/status.h"

namespace shuffledp {
namespace crypto {

class SecureRandom;

/// Arbitrary-precision unsigned integer.
class BigInt {
 public:
  /// Zero.
  BigInt() = default;

  /// From a machine word.
  explicit BigInt(uint64_t v) {
    if (v != 0) limbs_.push_back(v);
  }

  /// Parses a big-endian hex string (no 0x prefix). Empty string is zero.
  static Result<BigInt> FromHexString(const std::string& hex);

  /// Parses a decimal string.
  static Result<BigInt> FromDecimalString(const std::string& dec);

  /// From big-endian bytes.
  static BigInt FromBytesBigEndian(const Bytes& bytes);

  /// Lowercase hex, no leading zeros ("0" for zero).
  std::string ToHexString() const;

  /// Decimal string.
  std::string ToDecimalString() const;

  /// Big-endian bytes, zero-padded on the left to at least `min_len`.
  Bytes ToBytesBigEndian(size_t min_len = 0) const;

  /// Value as uint64; saturates if the value exceeds 64 bits.
  uint64_t ToU64Saturating() const;

  bool IsZero() const { return limbs_.empty(); }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }

  /// Number of significant bits (0 for zero).
  size_t BitLength() const;

  /// Bit `i` (0 = least significant).
  bool GetBit(size_t i) const;

  /// Three-way comparison: -1, 0, +1.
  int Compare(const BigInt& other) const;

  bool operator==(const BigInt& o) const { return Compare(o) == 0; }
  bool operator!=(const BigInt& o) const { return Compare(o) != 0; }
  bool operator<(const BigInt& o) const { return Compare(o) < 0; }
  bool operator<=(const BigInt& o) const { return Compare(o) <= 0; }
  bool operator>(const BigInt& o) const { return Compare(o) > 0; }
  bool operator>=(const BigInt& o) const { return Compare(o) >= 0; }

  /// this + other.
  BigInt Add(const BigInt& other) const;

  /// this - other. Pre-condition: other <= this (checked; returns 0 and
  /// sets ok=false if provided).
  BigInt Sub(const BigInt& other) const;

  /// this * other (Karatsuba above kKaratsubaThreshold limbs).
  BigInt Mul(const BigInt& other) const;

  /// this << bits.
  BigInt ShiftLeft(size_t bits) const;

  /// this >> bits.
  BigInt ShiftRight(size_t bits) const;

  /// Quotient and remainder of this / divisor. Error if divisor is zero.
  Status DivMod(const BigInt& divisor, BigInt* quotient,
                BigInt* remainder) const;

  /// this mod m (m > 0).
  BigInt Mod(const BigInt& m) const;

  /// (this * other) mod m.
  BigInt ModMul(const BigInt& other, const BigInt& m) const;

  /// this^exponent mod m (4-bit fixed window). Pre: m > 0.
  BigInt ModExp(const BigInt& exponent, const BigInt& m) const;

  /// Greatest common divisor.
  static BigInt Gcd(const BigInt& a, const BigInt& b);

  /// Least common multiple.
  static BigInt Lcm(const BigInt& a, const BigInt& b);

  /// Modular inverse of this mod m; error if gcd(this, m) != 1.
  Result<BigInt> ModInverse(const BigInt& m) const;

  /// Miller-Rabin with `rounds` random bases (error probability 4^-rounds).
  bool IsProbablePrime(int rounds, SecureRandom* rng) const;

  /// Uniform integer with exactly `bits` bits (top bit set).
  static BigInt RandomWithBits(size_t bits, SecureRandom* rng);

  /// Uniform integer in [0, bound).
  static BigInt RandomBelow(const BigInt& bound, SecureRandom* rng);

  /// Random probable prime with exactly `bits` bits.
  static BigInt GeneratePrime(size_t bits, SecureRandom* rng);

  /// Number of 64-bit limbs (0 for zero).
  size_t limb_count() const { return limbs_.size(); }

  /// Low-level limb access (little-endian; zero beyond limb_count()).
  /// Exposed for the Montgomery kernel; not part of the stable API.
  uint64_t limb(size_t i) const { return i < limbs_.size() ? limbs_[i] : 0; }

  /// Builds a BigInt from little-endian limbs (low-level counterpart of
  /// limb(); trailing zeros are normalized away).
  static BigInt FromLimbsLittleEndian(std::vector<uint64_t> limbs) {
    BigInt out;
    out.limbs_ = std::move(limbs);
    out.Normalize();
    return out;
  }

 private:
  static constexpr size_t kKaratsubaThreshold = 24;

  static BigInt MulSchoolbook(const BigInt& a, const BigInt& b);
  static BigInt MulKaratsuba(const BigInt& a, const BigInt& b);
  BigInt LimbRange(size_t from, size_t to) const;  // limbs [from, to)

  void Normalize();

  std::vector<uint64_t> limbs_;  // little-endian
};

}  // namespace crypto
}  // namespace shuffledp

#endif  // SHUFFLEDP_CRYPTO_BIGINT_H_
