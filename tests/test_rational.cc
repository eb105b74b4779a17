#include "util/rational.h"

#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace cqlopt {
namespace {

constexpr int64_t kMax = INT64_MAX;

BigInt Big(const char* decimal) {
  BigInt out;
  EXPECT_TRUE(BigInt::FromString(decimal, &out)) << decimal;
  return out;
}

// Numerators and denominators at and near the edge of the inline int64
// form: ±(2^63-1), INT64_MIN = -2^63, and 2^63 just past it.
std::vector<BigInt> BoundaryIntegers() {
  return {BigInt(0),         BigInt(1),          BigInt(-1),
          BigInt(2),         BigInt(-3),         BigInt(6),
          BigInt(kMax),      BigInt(-kMax),      BigInt(kMax - 1),
          BigInt(-kMax + 1), BigInt(INT64_MIN),  Big("9223372036854775808"),
          Big("-9223372036854775809"), BigInt(int64_t{1} << 62),
          BigInt(int64_t{3} << 61), BigInt(int64_t{1} << 32),
          Big("85070591730234615847396907784232501249")};  // (2^63-1)^2
}

// Rationals built from every boundary numerator/denominator pair.
std::vector<Rational> BoundaryRationals() {
  std::vector<Rational> out;
  for (const BigInt& num : BoundaryIntegers()) {
    for (const BigInt& den : BoundaryIntegers()) {
      if (!den.is_zero()) out.push_back(Rational(num, den));
    }
  }
  return out;
}

// The reduced BigInt pair for num/den (den != 0), computed from scratch.
struct Reference {
  BigInt num;
  BigInt den;
};

Reference Reduce(BigInt num, BigInt den) {
  if (den.is_negative()) {
    num = -num;
    den = -den;
  }
  if (num.is_zero()) return {BigInt(0), BigInt(1)};
  BigInt g = BigInt::Gcd(num, den);
  return {num / g, den / g};
}

bool FitsInline(const BigInt& v) {
  int64_t out = 0;
  return v.ToInt64(&out) && out != INT64_MIN;
}

// `r` must be `ref` in every observable way: value, canonical form (so it
// equals a freshly built equal value), rendering, and the BigInt-formula
// hash.
void ExpectMatches(const Rational& r, const Reference& ref) {
  ASSERT_EQ(r.numerator(), ref.num) << r.ToString();
  ASSERT_EQ(r.denominator(), ref.den) << r.ToString();
  EXPECT_EQ(r, Rational(ref.num, ref.den));
  int64_t num = 0;
  int64_t den = 0;
  const bool fits = FitsInline(ref.num) && FitsInline(ref.den);
  ASSERT_EQ(r.ToInt64(&num, &den), fits) << r.ToString();
  if (fits) {
    EXPECT_EQ(r, Rational(num, den));
    EXPECT_EQ(BigInt(num), ref.num);
    EXPECT_EQ(BigInt(den), ref.den);
  }
  size_t hash = ref.num.Hash();
  hash ^= ref.den.Hash() + 0x9e3779b97f4a7c15ull + (hash << 6) + (hash >> 2);
  EXPECT_EQ(r.Hash(), hash) << r.ToString();
  EXPECT_EQ(r.ToString(), ref.den == BigInt(1)
                              ? ref.num.ToString()
                              : ref.num.ToString() + "/" + ref.den.ToString());
  EXPECT_EQ(r.sign(), ref.num.sign());
  EXPECT_EQ(r.is_integer(), ref.den == BigInt(1));
}

TEST(RationalTest, DefaultIsZero) {
  Rational r;
  EXPECT_TRUE(r.is_zero());
  EXPECT_TRUE(r.is_integer());
  EXPECT_EQ(r.ToString(), "0");
}

TEST(RationalTest, NormalizesSignAndGcd) {
  Rational r(BigInt(4), BigInt(-6));
  EXPECT_EQ(r.ToString(), "-2/3");
  EXPECT_TRUE(r.is_negative());
  EXPECT_EQ(r.denominator().ToString(), "3");
}

TEST(RationalTest, ZeroNormalizesDenominator) {
  Rational r(BigInt(0), BigInt(-17));
  EXPECT_TRUE(r.is_zero());
  EXPECT_EQ(r.denominator(), BigInt(1));
}

TEST(RationalTest, ArithmeticExact) {
  Rational a(BigInt(1), BigInt(3));
  Rational b(BigInt(1), BigInt(6));
  EXPECT_EQ((a + b).ToString(), "1/2");
  EXPECT_EQ((a - b).ToString(), "1/6");
  EXPECT_EQ((a * b).ToString(), "1/18");
  EXPECT_EQ((a / b).ToString(), "2");
}

TEST(RationalTest, ComparisonCrossMultiplies) {
  Rational a(BigInt(1), BigInt(3));
  Rational b(BigInt(2), BigInt(5));
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  EXPECT_LE(a, a);
  EXPECT_LT(Rational(-1), Rational(0));
  EXPECT_LT(Rational(BigInt(-1), BigInt(2)), Rational(BigInt(-1), BigInt(3)));
}

TEST(RationalTest, FromStringVariants) {
  Rational r;
  ASSERT_TRUE(Rational::FromString("7", &r));
  EXPECT_EQ(r.ToString(), "7");
  ASSERT_TRUE(Rational::FromString("-3/9", &r));
  EXPECT_EQ(r.ToString(), "-1/3");
  ASSERT_TRUE(Rational::FromString("3.25", &r));
  EXPECT_EQ(r.ToString(), "13/4");
  ASSERT_TRUE(Rational::FromString("-0.5", &r));
  EXPECT_EQ(r.ToString(), "-1/2");
  ASSERT_TRUE(Rational::FromString("0.10", &r));
  EXPECT_EQ(r.ToString(), "1/10");
}

TEST(RationalTest, FromStringRejectsBadInput) {
  Rational r;
  EXPECT_FALSE(Rational::FromString("", &r));
  EXPECT_FALSE(Rational::FromString("1/0", &r));
  EXPECT_FALSE(Rational::FromString("a", &r));
  EXPECT_FALSE(Rational::FromString("1.", &r));
}

TEST(RationalTest, ReciprocalAndAbs) {
  Rational r(BigInt(-2), BigInt(3));
  EXPECT_EQ(r.Reciprocal().ToString(), "-3/2");
  EXPECT_EQ(r.Abs().ToString(), "2/3");
}

TEST(RationalTest, BoundaryOperationsMatchBigIntReference) {
  const std::vector<Rational> values = BoundaryRationals();
  for (const Rational& a : values) {
    const BigInt an = a.numerator();
    const BigInt ad = a.denominator();
    ExpectMatches(a, Reduce(an, ad));
    ExpectMatches(-a, Reduce(-an, ad));
    if (!a.is_zero()) ExpectMatches(a.Reciprocal(), Reduce(ad, an));
    for (const Rational& b : values) {
      const BigInt bn = b.numerator();
      const BigInt bd = b.denominator();
      ExpectMatches(a + b, Reduce(an * bd + bn * ad, ad * bd));
      ExpectMatches(a - b, Reduce(an * bd + -(bn * ad), ad * bd));
      ExpectMatches(a * b, Reduce(an * bn, ad * bd));
      if (!b.is_zero()) ExpectMatches(a / b, Reduce(an * bd, ad * bn));
      EXPECT_EQ(a.Compare(b), (an * bd).Compare(bn * ad));
      EXPECT_EQ(a == b, an == bn && ad == bd);
    }
  }
}

TEST(RationalTest, OverflowPromotesAndReductionDemotes) {
  int64_t num = 0;
  int64_t den = 0;
  const Rational max(kMax);
  // Sums and products past int64 are held exactly...
  const Rational sum = max + Rational(1);
  EXPECT_FALSE(sum.ToInt64(&num, &den));
  EXPECT_EQ(sum.ToString(), "9223372036854775808");
  const Rational product = max * max;
  EXPECT_EQ(product.ToString(), "85070591730234615847396907784232501249");
  const Rational tiny = Rational(1) / product;
  EXPECT_EQ(tiny.ToString(), "1/85070591730234615847396907784232501249");
  // ...and come back inline once they fit again.
  EXPECT_EQ(sum - Rational(1), max);
  EXPECT_TRUE((sum - Rational(1)).ToInt64(&num, &den));
  EXPECT_EQ(product / max, max);
  EXPECT_EQ(tiny * max, Rational(1, kMax));
  EXPECT_EQ(tiny.Reciprocal() / max, max);
  EXPECT_EQ(Rational(kMax, 2) + Rational(kMax, 2), max);
  EXPECT_EQ(Rational(kMax, 3) * Rational(3, kMax), Rational(1));
  // INT64_MIN is past the symmetric inline range, in either position.
  const Rational min(INT64_MIN);
  EXPECT_FALSE(min.ToInt64(&num, &den));
  EXPECT_EQ(min.ToString(), "-9223372036854775808");
  EXPECT_EQ(-min, sum);
  EXPECT_EQ(min + Rational(1), Rational(-kMax));
  EXPECT_TRUE((min + Rational(1)).ToInt64(&num, &den));
  EXPECT_EQ(Rational(1, INT64_MIN).ToString(), "-1/9223372036854775808");
  EXPECT_EQ(Rational(2, INT64_MIN), Rational(-1, int64_t{1} << 62));
  EXPECT_EQ(Rational(INT64_MIN, -2), Rational(int64_t{1} << 62));
  EXPECT_LT(min, Rational(-kMax));
  EXPECT_GT(sum, max);
}

TEST(RationalTest, HashValuesArePinned) {
  // Fingerprints and decision-cache keys hash coefficients, so the hash of
  // a value must not depend on how it is held.
  if constexpr (sizeof(size_t) == 8) {
    EXPECT_EQ(Rational(0).Hash(), 4354685564936845355ull);
    EXPECT_EQ(Rational(-2, 3).Hash(), 1771970502485605686ull);
    EXPECT_EQ(Rational(BigInt(INT64_MIN), BigInt(7)).Hash(),
              12262848650021403197ull);
    EXPECT_EQ(
        Rational(Big("123456789012345678901234567890"), BigInt(kMax)).Hash(),
        8902804879413441097ull);
  }
}

TEST(RationalTest, FieldAxiomsRandomized) {
  std::mt19937_64 rng(11);
  const std::vector<Rational> boundary = BoundaryRationals();
  auto random_rational = [&rng, &boundary]() {
    if (rng() % 2 == 0) return boundary[rng() % boundary.size()];
    int64_t n = static_cast<int64_t>(rng() % 2001) - 1000;
    int64_t d = static_cast<int64_t>(rng() % 50) + 1;
    return Rational(BigInt(n), BigInt(d));
  };
  for (int i = 0; i < 2000; ++i) {
    Rational a = random_rational();
    Rational b = random_rational();
    Rational c = random_rational();
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a - a, Rational(0));
    if (!b.is_zero()) {
      EXPECT_EQ(a / b * b, a);
    }
  }
}

TEST(RationalTest, CompareConsistentWithSubtraction) {
  std::mt19937_64 rng(13);
  const std::vector<Rational> boundary = BoundaryRationals();
  auto random_rational = [&rng, &boundary]() {
    if (rng() % 2 == 0) return boundary[rng() % boundary.size()];
    return Rational(BigInt(static_cast<int64_t>(rng() % 200) - 100),
                    BigInt(static_cast<int64_t>(rng() % 20) + 1));
  };
  for (int i = 0; i < 2000; ++i) {
    Rational a = random_rational();
    Rational b = random_rational();
    EXPECT_EQ(a.Compare(b) < 0, (a - b).is_negative());
    EXPECT_EQ(a.Compare(b) == 0, (a - b).is_zero());
  }
}

}  // namespace
}  // namespace cqlopt
