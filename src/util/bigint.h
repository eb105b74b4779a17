#ifndef CQLOPT_UTIL_BIGINT_H_
#define CQLOPT_UTIL_BIGINT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace cqlopt {

/// Arbitrary-precision signed integer.
///
/// Fourier–Motzkin elimination (src/constraint/fourier_motzkin.h) multiplies
/// constraint coefficients pairwise at every elimination step, so coefficient
/// magnitudes can grow doubly exponentially in the number of eliminated
/// variables. Fixed-width arithmetic would silently overflow and corrupt
/// satisfiability/implication answers; the whole optimizer is only sound if
/// the constraint algebra is exact, hence this class.
///
/// Representation: sign + little-endian base-2^32 magnitude with no leading
/// zero limbs; zero is the empty magnitude with non-negative sign.
///
/// Most constraint coefficients are small, so `Rational` keeps values that
/// fit in int64 inline and only holds `BigInt`s for the ones that do not
/// (see rational.h). What reaches this class is the overflow tail, and its
/// division is limb-wise: one pass for a one-limb divisor, Knuth's
/// Algorithm D (TAOCP 4.3.1) otherwise.
class BigInt {
 public:
  BigInt() : negative_(false) {}
  BigInt(int64_t value);  // NOLINT(runtime/explicit): ints are BigInts.
  /// The value of a 128-bit integer (named, so int literals stay unambiguous).
  static BigInt FromInt128(__int128 value);

  /// Parses an optionally signed decimal string. Returns false on malformed
  /// input (empty, or any non-digit past the sign).
  static bool FromString(const std::string& text, BigInt* out);

  bool is_zero() const { return limbs_.empty(); }
  bool is_negative() const { return negative_; }
  /// -1, 0, or +1.
  int sign() const { return is_zero() ? 0 : (negative_ ? -1 : 1); }

  BigInt operator-() const;
  BigInt operator+(const BigInt& other) const;
  BigInt operator*(const BigInt& other) const;
  /// Truncated division (C++ semantics: quotient rounds toward zero).
  /// Precondition: other != 0.
  BigInt operator/(const BigInt& other) const;
  /// Remainder with the sign of *this (C++ semantics).
  /// Precondition: other != 0.
  BigInt operator%(const BigInt& other) const;

  BigInt& operator+=(const BigInt& other) { return *this = *this + other; }
  BigInt& operator*=(const BigInt& other) { return *this = *this * other; }

  bool operator==(const BigInt& other) const {
    return negative_ == other.negative_ && limbs_ == other.limbs_;
  }
  bool operator!=(const BigInt& other) const { return !(*this == other); }
  bool operator<(const BigInt& other) const { return Compare(other) < 0; }
  bool operator<=(const BigInt& other) const { return Compare(other) <= 0; }
  bool operator>(const BigInt& other) const { return Compare(other) > 0; }
  bool operator>=(const BigInt& other) const { return Compare(other) >= 0; }

  /// Signed three-way comparison: negative, zero, or positive.
  int Compare(const BigInt& other) const;

  BigInt Abs() const;

  /// Greatest common divisor, always non-negative; Gcd(0,0) == 0.
  static BigInt Gcd(const BigInt& a, const BigInt& b);
  /// Gcd of two machine words; Gcd64(0,0) == 0.
  static uint64_t Gcd64(uint64_t a, uint64_t b);

  /// Value as int64 if it fits. Returns false on overflow.
  bool ToInt64(int64_t* out) const;

  /// Decimal representation.
  std::string ToString() const;

  /// Hash suitable for unordered containers.
  size_t Hash() const;
  /// Equals BigInt(value).Hash(), computed without building the BigInt.
  static size_t HashInt64(int64_t value);

 private:
  /// Compares magnitudes only.
  static int CompareMagnitude(const std::vector<uint32_t>& a,
                              const std::vector<uint32_t>& b);
  static std::vector<uint32_t> AddMagnitude(const std::vector<uint32_t>& a,
                                            const std::vector<uint32_t>& b);
  /// Precondition: |a| >= |b|.
  static std::vector<uint32_t> SubMagnitude(const std::vector<uint32_t>& a,
                                            const std::vector<uint32_t>& b);
  static std::vector<uint32_t> MulMagnitude(const std::vector<uint32_t>& a,
                                            const std::vector<uint32_t>& b);
  /// Limb-wise long division on magnitudes. Precondition: b non-empty.
  static void DivModMagnitude(const std::vector<uint32_t>& a,
                              const std::vector<uint32_t>& b,
                              std::vector<uint32_t>* quotient,
                              std::vector<uint32_t>* remainder);
  /// limbs = limbs * mul + add, in place.
  static void MulAddSmall(std::vector<uint32_t>* limbs, uint32_t mul,
                          uint32_t add);
  /// limbs /= divisor, in place; returns the remainder.
  static uint32_t DivSmall(std::vector<uint32_t>* limbs, uint32_t divisor);
  static void Trim(std::vector<uint32_t>* limbs);

  void Normalize();

  bool negative_;
  std::vector<uint32_t> limbs_;
};

}  // namespace cqlopt

#endif  // CQLOPT_UTIL_BIGINT_H_
