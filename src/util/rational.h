#ifndef CQLOPT_UTIL_RATIONAL_H_
#define CQLOPT_UTIL_RATIONAL_H_

#include <cstdint>
#include <string>

#include "util/bigint.h"

namespace cqlopt {

/// Exact rational number, the coefficient domain of the constraint algebra.
///
/// The paper's constraints range over the reals; for *linear* constraints,
/// satisfiability, implication and quantifier elimination over the reals
/// coincide with the same questions over the rationals, so exact rational
/// arithmetic gives exact answers (see DESIGN.md, substitutions table).
///
/// Invariants: denominator > 0; numerator/denominator coprime; zero is 0/1.
///
/// Representation. Nearly every coefficient the constraint layer sees is
/// small, so a value is held in one of two forms:
///   - small: `num_`/`den_` inline as int64, with `den_ >= 1`;
///   - promoted: `den_ == 0`, and `big_` owns a heap-held `BigInt` pair.
/// The form is canonical: a value is small exactly when its numerator and
/// denominator both lie in [-(2^63-1), 2^63-1]. So `==` is a field compare,
/// negating a small value cannot overflow, and INT64_MIN is held promoted.
/// Small operations compute in `__int128` or with `__builtin_*_overflow`;
/// a result that does not fit is promoted, and a promoted result that fits
/// again after reduction comes back small. Which form a value has is never
/// visible to callers: values, renderings and `Hash()` are the same as for
/// the equal `BigInt` pair (`Hash()` combines `numerator().Hash()` and
/// `denominator().Hash()`, computed from the int64s without allocating).
class Rational {
 public:
  Rational() : num_(0), den_(1) {}
  Rational(int64_t value) : num_(value), den_(1) {  // NOLINT(runtime/explicit)
    if (value == INT64_MIN) SetReduced(BigInt(value), BigInt(1));
  }
  /// Precondition: den != 0.
  Rational(int64_t num, int64_t den);
  /// Precondition: den != 0.
  Rational(BigInt num, BigInt den);

  Rational(const Rational& other) : den_(other.den_) {
    if (other.is_promoted()) {
      big_ = new Big(*other.big_);
    } else {
      num_ = other.num_;
    }
  }
  Rational(Rational&& other) noexcept : den_(other.den_) { Steal(&other); }
  Rational& operator=(const Rational& other) {
    if (this != &other) *this = Rational(other);
    return *this;
  }
  Rational& operator=(Rational&& other) noexcept {
    if (this != &other) {
      if (is_promoted()) delete big_;
      den_ = other.den_;
      Steal(&other);
    }
    return *this;
  }
  ~Rational() {
    if (is_promoted()) delete big_;
  }

  /// Parses "n", "-n", "n/m", or a decimal like "3.25" / "-0.5".
  static bool FromString(const std::string& text, Rational* out);

  BigInt numerator() const;
  BigInt denominator() const;
  /// The value as int64 numerator and denominator, if both lie in
  /// [-(2^63-1), 2^63-1]. Returns false otherwise.
  bool ToInt64(int64_t* num, int64_t* den) const;

  bool is_zero() const { return den_ != 0 && num_ == 0; }
  bool is_negative() const { return sign() < 0; }
  /// -1, 0, or +1.
  int sign() const {
    if (is_promoted()) return big_->num.sign();
    return (num_ > 0) - (num_ < 0);
  }
  bool is_integer() const {
    return den_ == 1 || (is_promoted() && BigIsInteger());
  }

  Rational operator-() const;
  Rational operator+(const Rational& other) const;
  Rational operator-(const Rational& other) const;
  Rational operator*(const Rational& other) const;
  /// Precondition: other != 0.
  Rational operator/(const Rational& other) const;

  Rational& operator+=(const Rational& other) { return *this = *this + other; }
  Rational& operator-=(const Rational& other) { return *this = *this - other; }
  Rational& operator*=(const Rational& other) { return *this = *this * other; }
  Rational& operator/=(const Rational& other) { return *this = *this / other; }

  bool operator==(const Rational& other) const {
    if (den_ != other.den_) return false;
    return is_promoted() ? BigEquals(other) : num_ == other.num_;
  }
  bool operator!=(const Rational& other) const { return !(*this == other); }
  bool operator<(const Rational& other) const { return Compare(other) < 0; }
  bool operator<=(const Rational& other) const { return Compare(other) <= 0; }
  bool operator>(const Rational& other) const { return Compare(other) > 0; }
  bool operator>=(const Rational& other) const { return Compare(other) >= 0; }

  /// Signed three-way comparison.
  int Compare(const Rational& other) const;

  Rational Abs() const { return is_negative() ? -*this : *this; }
  Rational Reciprocal() const;

  /// "n" for integers, "n/m" otherwise.
  std::string ToString() const;

  size_t Hash() const;

 private:
  struct Big {
    BigInt num;
    BigInt den;
  };

  bool is_promoted() const { return den_ == 0; }
  /// A small value already in lowest terms.
  static Rational Small(int64_t num, int64_t den) {
    Rational out;
    out.num_ = num;
    out.den_ = den;
    return out;
  }
  /// Takes `other`'s value (den_ already copied) and leaves it zero.
  void Steal(Rational* other) {
    if (is_promoted()) {
      big_ = other->big_;
    } else {
      num_ = other->num_;
    }
    other->num_ = 0;
    other->den_ = 1;
  }
  bool BigIsInteger() const;
  bool BigEquals(const Rational& other) const;
  /// On a small *this, stores num/den given in lowest terms with den > 0:
  /// small if both fit, promoted otherwise.
  void SetReduced(__int128 num, __int128 den);
  void SetReduced(BigInt num, BigInt den);
  /// On a small *this, reduces num/den (den != 0) and stores it.
  void SetNormalized(__int128 num, __int128 den);
  void SetNormalized(BigInt num, BigInt den);

  union {
    int64_t num_;  // small form
    Big* big_;     // promoted form, when den_ == 0
  };
  int64_t den_;
};

// Two words: the small pair, or the promoted pointer and its den_ == 0 tag.
static_assert(sizeof(Rational) == 16, "Rational must stay two words");

}  // namespace cqlopt

#endif  // CQLOPT_UTIL_RATIONAL_H_
