#include "util/bigint.h"

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace cqlopt {
namespace {

using Limbs = std::vector<uint32_t>;  // little-endian base-2^32 magnitude

// Reference division: the bitwise long division BigInt used before it
// divided limb-wise, one shift and compare-and-subtract per dividend bit.
// Slow but obviously correct, so the limb-wise code is checked against it.
namespace reference {

void Trim(Limbs* limbs) {
  while (!limbs->empty() && limbs->back() == 0) limbs->pop_back();
}

int CompareMagnitude(const Limbs& a, const Limbs& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

// Precondition: a >= b.
Limbs SubMagnitude(const Limbs& a, const Limbs& b) {
  Limbs out;
  int64_t borrow = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a[i]) - borrow -
                   (i < b.size() ? static_cast<int64_t>(b[i]) : 0);
    borrow = diff < 0 ? 1 : 0;
    if (diff < 0) diff += int64_t{1} << 32;
    out.push_back(static_cast<uint32_t>(diff));
  }
  Trim(&out);
  return out;
}

// Precondition: b non-empty.
void DivMod(const Limbs& a, const Limbs& b, Limbs* quotient, Limbs* remainder) {
  quotient->assign(a.size(), 0);
  remainder->clear();
  for (size_t limb = a.size(); limb-- > 0;) {
    for (int bit = 31; bit >= 0; --bit) {
      uint32_t carry = (a[limb] >> bit) & 1u;
      for (uint32_t& r : *remainder) {
        uint32_t next_carry = r >> 31;
        r = (r << 1) | carry;
        carry = next_carry;
      }
      if (carry != 0) remainder->push_back(carry);
      if (CompareMagnitude(*remainder, b) >= 0) {
        *remainder = SubMagnitude(*remainder, b);
        (*quotient)[limb] |= uint32_t{1} << bit;
      }
    }
  }
  Trim(quotient);
  Trim(remainder);
}

Limbs Gcd(Limbs a, Limbs b) {
  while (!b.empty()) {
    Limbs q, r;
    DivMod(a, b, &q, &r);
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

}  // namespace reference

BigInt FromLimbs(const Limbs& limbs, bool negative) {
  const BigInt base(int64_t{1} << 32);
  BigInt out;
  for (size_t i = limbs.size(); i-- > 0;) {
    out = out * base + BigInt(static_cast<int64_t>(limbs[i]));
  }
  return negative ? -out : out;
}

// Divides a by b (with signs) both ways and checks quotient, remainder and
// Gcd against the reference.
void ExpectDivisionMatchesReference(const Limbs& a, bool a_negative,
                                    const Limbs& b, bool b_negative,
                                    bool check_gcd = true) {
  Limbs q, r;
  reference::DivMod(a, b, &q, &r);
  const BigInt x = FromLimbs(a, a_negative);
  const BigInt y = FromLimbs(b, b_negative);
  ASSERT_EQ(x / y, FromLimbs(q, a_negative != b_negative))
      << x.ToString() << " / " << y.ToString();
  ASSERT_EQ(x % y, FromLimbs(r, a_negative))
      << x.ToString() << " % " << y.ToString();
  if (check_gcd) {
    ASSERT_EQ(BigInt::Gcd(x, y), FromLimbs(reference::Gcd(a, b), false))
        << "gcd(" << x.ToString() << ", " << y.ToString() << ")";
  }
}

TEST(BigIntTest, DefaultIsZero) {
  BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_FALSE(z.is_negative());
  EXPECT_EQ(z.sign(), 0);
  EXPECT_EQ(z.ToString(), "0");
}

TEST(BigIntTest, FromInt64RoundTrip) {
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{42},
                    int64_t{-937}, int64_t{1} << 40, -(int64_t{1} << 40),
                    INT64_MAX, INT64_MIN + 1}) {
    BigInt b(v);
    int64_t back = 0;
    ASSERT_TRUE(b.ToInt64(&back)) << v;
    EXPECT_EQ(back, v);
  }
}

TEST(BigIntTest, Int64MinIsHandled) {
  BigInt b(INT64_MIN);
  int64_t back = 0;
  ASSERT_TRUE(b.ToInt64(&back));
  EXPECT_EQ(back, INT64_MIN);
  EXPECT_EQ(b.ToString(), "-9223372036854775808");
}

TEST(BigIntTest, ToInt64OverflowDetected) {
  BigInt big(INT64_MAX);
  big = big + BigInt(1);
  int64_t out = 0;
  EXPECT_FALSE(big.ToInt64(&out));
  BigInt small(INT64_MIN);
  small = small + BigInt(-1);
  EXPECT_FALSE(small.ToInt64(&out));
}

TEST(BigIntTest, FromStringParsesSignedDecimals) {
  BigInt b;
  ASSERT_TRUE(BigInt::FromString("123456789012345678901234567890", &b));
  EXPECT_EQ(b.ToString(), "123456789012345678901234567890");
  ASSERT_TRUE(BigInt::FromString("-42", &b));
  EXPECT_EQ(b.ToString(), "-42");
  ASSERT_TRUE(BigInt::FromString("+7", &b));
  EXPECT_EQ(b.ToString(), "7");
}

TEST(BigIntTest, FromStringRejectsGarbage) {
  BigInt b;
  EXPECT_FALSE(BigInt::FromString("", &b));
  EXPECT_FALSE(BigInt::FromString("-", &b));
  EXPECT_FALSE(BigInt::FromString("12a3", &b));
  EXPECT_FALSE(BigInt::FromString("1.5", &b));
}

TEST(BigIntTest, AdditionCarriesAcrossLimbs) {
  BigInt a;
  ASSERT_TRUE(BigInt::FromString("4294967295", &a));  // 2^32 - 1
  BigInt sum = a + BigInt(1);
  EXPECT_EQ(sum.ToString(), "4294967296");
}

TEST(BigIntTest, MixedSignAdditionBorrowsAndFlipsSign) {
  EXPECT_EQ((BigInt(5) + -BigInt(9)).ToString(), "-4");
  EXPECT_EQ((BigInt(-5) + -BigInt(-9)).ToString(), "4");
  EXPECT_EQ((BigInt(5) + -BigInt(5)).ToString(), "0");
}

TEST(BigIntTest, MultiplicationLargeValues) {
  BigInt a;
  BigInt b;
  ASSERT_TRUE(BigInt::FromString("123456789012345678901234567890", &a));
  ASSERT_TRUE(BigInt::FromString("987654321098765432109876543210", &b));
  EXPECT_EQ((a * b).ToString(),
            "121932631137021795226185032733622923332237463801111263526900");
}

TEST(BigIntTest, DivisionTruncatesTowardZero) {
  EXPECT_EQ((BigInt(7) / BigInt(2)).ToString(), "3");
  EXPECT_EQ((BigInt(-7) / BigInt(2)).ToString(), "-3");
  EXPECT_EQ((BigInt(7) / BigInt(-2)).ToString(), "-3");
  EXPECT_EQ((BigInt(-7) / BigInt(-2)).ToString(), "3");
}

TEST(BigIntTest, RemainderHasDividendSign) {
  EXPECT_EQ((BigInt(7) % BigInt(3)).ToString(), "1");
  EXPECT_EQ((BigInt(-7) % BigInt(3)).ToString(), "-1");
  EXPECT_EQ((BigInt(7) % BigInt(-3)).ToString(), "1");
}

TEST(BigIntTest, DivModIdentityRandomized) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 200; ++i) {
    int64_t x = static_cast<int64_t>(rng()) / 3;
    int64_t y = static_cast<int64_t>(rng() % 100000) + 1;
    BigInt bx(x);
    BigInt by(y);
    BigInt q = bx / by;
    BigInt r = bx % by;
    EXPECT_EQ(q * by + r, bx) << x << " / " << y;
    EXPECT_TRUE(r.Abs() < by.Abs());
  }
}

TEST(BigIntTest, MultiLimbDivisionMatchesBitwiseReference) {
  // Operands up to 8 limbs (78 digits). Limbs are drawn uniformly or from
  // edge values, so Algorithm D's normalisation shifts, qhat corrections
  // and the one-limb path all run.
  std::mt19937_64 rng(20261017);
  const uint32_t edges[] = {0u, 1u, 2u, 0x7fffffffu, 0x80000000u,
                            0x80000001u, 0xfffffffeu, 0xffffffffu};
  auto random_limbs = [&]() {
    Limbs limbs(1 + rng() % 8);
    for (uint32_t& limb : limbs) {
      limb = rng() % 3 == 0 ? edges[rng() % 8] : static_cast<uint32_t>(rng());
    }
    reference::Trim(&limbs);
    return limbs;
  };
  for (int i = 0; i < 100000; ++i) {
    Limbs a = random_limbs();
    Limbs b = random_limbs();
    if (b.empty()) b = {1};
    // Gcd's reference runs a bitwise division per Euclid step, so it is
    // checked on every 8th pair to keep the test fast under sanitizers.
    ExpectDivisionMatchesReference(a, rng() & 1, b, rng() & 1, true);
  }
}

TEST(BigIntTest, AllOnesLimbChainsMatchReference) {
  // x(k+1) = x(k) * 2^32 + (2^32 - 1): k limbs of 0xffffffff, the operands
  // where qhat most often overshoots.
  std::vector<Limbs> chain;
  for (size_t k = 1; k <= 8; ++k) chain.push_back(Limbs(k, 0xffffffffu));
  std::vector<Limbs> operands = chain;
  for (const Limbs& ones : chain) {
    Limbs top_bit = ones;
    top_bit.back() = 0x80000000u;
    operands.push_back(top_bit);
    Limbs low_one = ones;
    low_one[0] = 1;
    operands.push_back(low_one);
  }
  for (const Limbs& a : operands) {
    for (const Limbs& b : operands) {
      ExpectDivisionMatchesReference(a, false, b, false);
      ExpectDivisionMatchesReference(a, true, b, false);
    }
  }
}

TEST(BigIntTest, AddBackStepMatchesReference) {
  // A dividend/divisor pair whose quotient digit survives the two-limb
  // qhat test one too large, so Algorithm D must add the divisor back.
  const Limbs a = {0x7fffffffu, 0x00007fffu, 0x00000000u, 0x00007fffu};
  const Limbs b = {0x7fffffffu, 0x7fffffffu, 0x00007fffu};
  ExpectDivisionMatchesReference(a, false, b, false);
  ExpectDivisionMatchesReference(a, true, b, true);
  EXPECT_EQ(FromLimbs(a, false) / FromLimbs(b, false),
            BigInt(int64_t{0xfffefffe}));
}

TEST(BigIntTest, ThousandDigitRoundTrip) {
  std::mt19937_64 rng(5);
  std::string digits = "9";
  while (digits.size() < 1000) {
    digits.push_back(static_cast<char>('0' + rng() % 10));
  }
  // Runs of zeros straddling the nine-digit chunks ToString peels.
  std::string sparse =
      "1" + std::string(499, '0') + "7" + std::string(499, '0');
  for (const std::string& text : {digits, "-" + digits, sparse, "-" + sparse}) {
    BigInt b;
    ASSERT_TRUE(BigInt::FromString(text, &b));
    EXPECT_EQ(b.ToString(), text);
  }
}

TEST(BigIntTest, HashValuesArePinned) {
  // Fingerprints and decision-cache keys are built from these hashes, so
  // they must not change with the representation.
  if constexpr (sizeof(size_t) == 8) {
    BigInt big;
    ASSERT_TRUE(BigInt::FromString("123456789012345678901234567890", &big));
    EXPECT_EQ(BigInt(0).Hash(), 0u);
    EXPECT_EQ(BigInt(-7).Hash(), 14813675350809533556ull);
    EXPECT_EQ(BigInt(INT64_MAX).Hash(), 14813675570926607373ull);
    EXPECT_EQ(BigInt(INT64_MIN).Hash(), 18111443620852234919ull);
    EXPECT_EQ(big.Hash(), 5195440555879884090ull);
  }
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{1} << 32,
                    -(int64_t{1} << 32) - 5, INT64_MAX, INT64_MIN}) {
    EXPECT_EQ(BigInt::HashInt64(v), BigInt(v).Hash()) << v;
  }
}

TEST(BigIntTest, Gcd64MatchesBigIntGcd) {
  std::mt19937_64 rng(3);
  for (int i = 0; i < 10000; ++i) {
    uint64_t a = rng() >> (rng() % 64);
    uint64_t b = rng() >> (rng() % 64);
    if (i % 4 == 0) b = a * (rng() % 7) >> (rng() % 8);
    BigInt expected = BigInt::Gcd(BigInt::FromInt128(a), BigInt::FromInt128(b));
    EXPECT_EQ(BigInt::FromInt128(BigInt::Gcd64(a, b)), expected)
        << a << " " << b;
  }
  EXPECT_EQ(BigInt::Gcd64(0, 0), 0u);
  EXPECT_EQ(BigInt::Gcd64(0, UINT64_MAX), UINT64_MAX);
}

TEST(BigIntTest, ComparisonTotalOrder) {
  EXPECT_LT(BigInt(-3), BigInt(2));
  EXPECT_LT(BigInt(-3), BigInt(-2));
  EXPECT_LT(BigInt(2), BigInt(3));
  EXPECT_LE(BigInt(2), BigInt(2));
  EXPECT_GT(BigInt(0), BigInt(-1));
  BigInt big;
  ASSERT_TRUE(BigInt::FromString("10000000000000000000000", &big));
  EXPECT_GT(big, BigInt(INT64_MAX));
  EXPECT_LT(-big, BigInt(INT64_MIN));
}

TEST(BigIntTest, GcdBasics) {
  EXPECT_EQ(BigInt::Gcd(BigInt(12), BigInt(18)).ToString(), "6");
  EXPECT_EQ(BigInt::Gcd(BigInt(-12), BigInt(18)).ToString(), "6");
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(5)).ToString(), "5");
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(0)).ToString(), "0");
  EXPECT_EQ(BigInt::Gcd(BigInt(17), BigInt(13)).ToString(), "1");
}

TEST(BigIntTest, NegationOfZeroStaysZero) {
  BigInt z(0);
  EXPECT_EQ((-z).sign(), 0);
  EXPECT_FALSE((-z).is_negative());
}

TEST(BigIntTest, HashDistinguishesSign) {
  EXPECT_NE(BigInt(5).Hash(), BigInt(-5).Hash());
  EXPECT_EQ(BigInt(5).Hash(), BigInt(5).Hash());
}

TEST(BigIntTest, PowerOfTwoChainExact) {
  // 2^256 computed by repeated squaring, checked against the known value.
  BigInt two(2);
  BigInt p = two;
  for (int i = 0; i < 8; ++i) p = p * p;  // 2^(2^8) = 2^256
  EXPECT_EQ(p.ToString(),
            "115792089237316195423570985008687907853269984665640564039457584"
            "007913129639936");
}

}  // namespace
}  // namespace cqlopt
