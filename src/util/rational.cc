#include "util/rational.h"

#include <utility>

namespace cqlopt {

namespace {

using I128 = __int128;
using U128 = unsigned __int128;

/// The small range is symmetric, so a small value's negation is small.
bool FitsSmall(I128 v) { return v >= -INT64_MAX && v <= INT64_MAX; }

U128 Magnitude(I128 v) {
  return v < 0 ? ~static_cast<U128>(v) + 1 : static_cast<U128>(v);
}

uint64_t Magnitude(int64_t v) {
  return v < 0 ? ~static_cast<uint64_t>(v) + 1 : static_cast<uint64_t>(v);
}

U128 Gcd128(U128 a, U128 b) {
  while (b != 0) {
    if ((a >> 64) == 0 && (b >> 64) == 0) {
      return BigInt::Gcd64(static_cast<uint64_t>(a), static_cast<uint64_t>(b));
    }
    U128 r = a % b;
    a = b;
    b = r;
  }
  return a;
}

size_t CombineHashes(size_t num_hash, size_t den_hash) {
  return num_hash ^ (den_hash + 0x9e3779b97f4a7c15ull + (num_hash << 6) +
                     (num_hash >> 2));
}

}  // namespace

Rational::Rational(int64_t num, int64_t den) : num_(0), den_(1) {
  SetNormalized(static_cast<I128>(num), static_cast<I128>(den));
}

Rational::Rational(BigInt num, BigInt den) : num_(0), den_(1) {
  SetNormalized(std::move(num), std::move(den));
}

void Rational::SetReduced(I128 num, I128 den) {
  if (FitsSmall(num) && FitsSmall(den)) {
    num_ = static_cast<int64_t>(num);
    den_ = static_cast<int64_t>(den);
    return;
  }
  big_ = new Big{BigInt::FromInt128(num), BigInt::FromInt128(den)};
  den_ = 0;
}

void Rational::SetReduced(BigInt num, BigInt den) {
  int64_t n = 0;
  int64_t d = 0;
  if (num.ToInt64(&n) && den.ToInt64(&d)) {
    SetReduced(static_cast<I128>(n), static_cast<I128>(d));
    return;
  }
  big_ = new Big{std::move(num), std::move(den)};
  den_ = 0;
}

void Rational::SetNormalized(I128 num, I128 den) {
  if (den < 0) {
    num = -num;
    den = -den;
  }
  if (num == 0) {
    den = 1;
  } else if (U128 g = Gcd128(Magnitude(num), static_cast<U128>(den)); g != 1) {
    num /= static_cast<I128>(g);
    den /= static_cast<I128>(g);
  }
  SetReduced(num, den);
}

void Rational::SetNormalized(BigInt num, BigInt den) {
  int64_t n = 0;
  int64_t d = 0;
  if (num.ToInt64(&n) && den.ToInt64(&d)) {
    SetNormalized(static_cast<I128>(n), static_cast<I128>(d));
    return;
  }
  if (den.is_negative()) {
    num = -num;
    den = -den;
  }
  if (num.is_zero()) {
    den = BigInt(1);
  } else if (BigInt g = BigInt::Gcd(num, den); g != BigInt(1)) {
    num = num / g;
    den = den / g;
  }
  SetReduced(std::move(num), std::move(den));
}

bool Rational::FromString(const std::string& text, Rational* out) {
  size_t slash = text.find('/');
  if (slash != std::string::npos) {
    BigInt num, den;
    if (!BigInt::FromString(text.substr(0, slash), &num)) return false;
    if (!BigInt::FromString(text.substr(slash + 1), &den)) return false;
    if (den.is_zero()) return false;
    *out = Rational(num, den);
    return true;
  }
  size_t dot = text.find('.');
  if (dot != std::string::npos) {
    std::string integral = text.substr(0, dot);
    std::string fraction = text.substr(dot + 1);
    if (fraction.empty()) return false;
    bool negative = !integral.empty() && integral[0] == '-';
    BigInt whole;
    if (integral.empty() || integral == "-" || integral == "+") {
      whole = BigInt(0);
    } else if (!BigInt::FromString(integral, &whole)) {
      return false;
    }
    BigInt frac_num;
    if (!BigInt::FromString(fraction, &frac_num)) return false;
    if (frac_num.is_negative()) return false;
    BigInt scale;
    if (!BigInt::FromString("1" + std::string(fraction.size(), '0'), &scale)) {
      return false;
    }
    BigInt num = whole.Abs() * scale + frac_num;
    if (negative || whole.is_negative()) num = -num;
    *out = Rational(num, scale);
    return true;
  }
  BigInt num;
  if (!BigInt::FromString(text, &num)) return false;
  *out = Rational(num, BigInt(1));
  return true;
}

BigInt Rational::numerator() const {
  return is_promoted() ? big_->num : BigInt(num_);
}

BigInt Rational::denominator() const {
  return is_promoted() ? big_->den : BigInt(den_);
}

bool Rational::ToInt64(int64_t* num, int64_t* den) const {
  if (is_promoted()) return false;
  *num = num_;
  *den = den_;
  return true;
}

bool Rational::BigIsInteger() const { return big_->den == BigInt(1); }

bool Rational::BigEquals(const Rational& other) const {
  return big_->num == other.big_->num && big_->den == other.big_->den;
}

Rational Rational::operator-() const {
  if (!is_promoted()) return Small(-num_, den_);
  Rational out;
  out.SetReduced(-big_->num, big_->den);
  return out;
}

Rational Rational::operator+(const Rational& other) const {
  if (is_promoted() || other.is_promoted()) {
    return Rational(numerator() * other.denominator() +
                        other.numerator() * denominator(),
                    denominator() * other.denominator());
  }
  if (den_ == 1 && other.den_ == 1) {
    int64_t sum = 0;
    if (!__builtin_add_overflow(num_, other.num_, &sum) && sum != INT64_MIN) {
      return Small(sum, 1);
    }
  }
  // Knuth, TAOCP 4.5.1: with g = gcd(b, d), a/b + c/d = t / (b/g * d/g2)
  // in lowest terms, where t = a*(d/g) + c*(b/g) and g2 = gcd(t, g).
  // |t| < 2^127, so the 128-bit sum cannot overflow.
  const uint64_t g = BigInt::Gcd64(static_cast<uint64_t>(den_),
                                   static_cast<uint64_t>(other.den_));
  const int64_t b_g = den_ / static_cast<int64_t>(g);
  const int64_t d_g = other.den_ / static_cast<int64_t>(g);
  const I128 t =
      static_cast<I128>(num_) * d_g + static_cast<I128>(other.num_) * b_g;
  if (t == 0) return Rational();
  const uint64_t g2 =
      g == 1 ? 1 : BigInt::Gcd64(static_cast<uint64_t>(Magnitude(t) % g), g);
  Rational out;
  const int64_t d_g2 = other.den_ / static_cast<int64_t>(g2);
  out.SetReduced(t / static_cast<I128>(g2), static_cast<I128>(b_g) * d_g2);
  return out;
}

Rational Rational::operator-(const Rational& other) const {
  return *this + (-other);
}

Rational Rational::operator*(const Rational& other) const {
  if (is_promoted() || other.is_promoted()) {
    return Rational(numerator() * other.numerator(),
                    denominator() * other.denominator());
  }
  if (num_ == 0 || other.num_ == 0) return Rational();
  if (den_ == 1 && other.den_ == 1) {
    int64_t product = 0;
    if (!__builtin_mul_overflow(num_, other.num_, &product) &&
        product != INT64_MIN) {
      return Small(product, 1);
    }
  }
  // Cancel across before multiplying, so the product is in lowest terms:
  // (a/b)(c/d) = (a/g1)(c/g2) / ((b/g2)(d/g1)), g1 = gcd(a, d), g2 = gcd(c, b).
  const int64_t g1 = static_cast<int64_t>(
      BigInt::Gcd64(Magnitude(num_), static_cast<uint64_t>(other.den_)));
  const int64_t g2 = static_cast<int64_t>(
      BigInt::Gcd64(Magnitude(other.num_), static_cast<uint64_t>(den_)));
  Rational out;
  out.SetReduced(static_cast<I128>(num_ / g1) * (other.num_ / g2),
                 static_cast<I128>(den_ / g2) * (other.den_ / g1));
  return out;
}

Rational Rational::operator/(const Rational& other) const {
  return *this * other.Reciprocal();
}

int Rational::Compare(const Rational& other) const {
  if (is_promoted() || other.is_promoted()) {
    // Denominators are positive, so cross-multiplication preserves order.
    return (numerator() * other.denominator())
        .Compare(other.numerator() * denominator());
  }
  if (den_ == other.den_) return (num_ > other.num_) - (num_ < other.num_);
  const I128 lhs = static_cast<I128>(num_) * other.den_;
  const I128 rhs = static_cast<I128>(other.num_) * den_;
  return (lhs > rhs) - (lhs < rhs);
}

Rational Rational::Reciprocal() const {
  if (is_promoted()) return Rational(big_->den, big_->num);
  return num_ < 0 ? Small(-den_, -num_) : Small(den_, num_);
}

std::string Rational::ToString() const {
  if (is_promoted()) {
    if (BigIsInteger()) return big_->num.ToString();
    return big_->num.ToString() + "/" + big_->den.ToString();
  }
  if (den_ == 1) return std::to_string(num_);
  return std::to_string(num_) + "/" + std::to_string(den_);
}

size_t Rational::Hash() const {
  if (is_promoted()) return CombineHashes(big_->num.Hash(), big_->den.Hash());
  return CombineHashes(BigInt::HashInt64(num_), BigInt::HashInt64(den_));
}

}  // namespace cqlopt
