#include "util/bigint.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

namespace cqlopt {

namespace {
constexpr uint64_t kBase = uint64_t{1} << 32;
constexpr uint64_t kHashSeed = 0x9e3779b97f4a7c15ull;
// 10^9: the largest power of ten below 2^32, so one chunk fits a limb.
constexpr uint32_t kDecimalChunk = 1000000000;

/// Appends `magnitude`'s base-2^32 limbs, least significant first.
template <typename Unsigned>
void PushLimbs(Unsigned magnitude, std::vector<uint32_t>* limbs) {
  while (magnitude != 0) {
    limbs->push_back(static_cast<uint32_t>(magnitude & 0xffffffffu));
    magnitude >>= 32;
  }
}

/// The value of a magnitude of at most two limbs.
uint64_t Low64(const std::vector<uint32_t>& limbs) {
  uint64_t value = limbs.empty() ? 0 : limbs[0];
  if (limbs.size() > 1) value |= static_cast<uint64_t>(limbs[1]) << 32;
  return value;
}

size_t MixLimb(size_t h, uint32_t limb) {
  return h ^ (limb + kHashSeed + (h << 6) + (h >> 2));
}
}  // namespace

BigInt::BigInt(int64_t value) : negative_(value < 0) {
  // Avoid UB on INT64_MIN by working in uint64.
  PushLimbs(value < 0 ? ~static_cast<uint64_t>(value) + 1
                      : static_cast<uint64_t>(value),
            &limbs_);
}

BigInt BigInt::FromInt128(__int128 value) {
  using U128 = unsigned __int128;
  BigInt out;
  out.negative_ = value < 0;
  PushLimbs(
      value < 0 ? ~static_cast<U128>(value) + 1 : static_cast<U128>(value),
      &out.limbs_);
  return out;
}

bool BigInt::FromString(const std::string& text, BigInt* out) {
  size_t i = 0;
  bool negative = false;
  if (i < text.size() && (text[i] == '+' || text[i] == '-')) {
    negative = text[i] == '-';
    ++i;
  }
  if (i >= text.size()) return false;
  // Nine digits at a time: one limb multiply-add per chunk.
  BigInt result;
  while (i < text.size()) {
    uint32_t chunk = 0;
    uint32_t scale = 1;
    for (int k = 0; k < 9 && i < text.size(); ++k, ++i) {
      if (text[i] < '0' || text[i] > '9') return false;
      chunk = chunk * 10 + static_cast<uint32_t>(text[i] - '0');
      scale *= 10;
    }
    MulAddSmall(&result.limbs_, scale, chunk);
  }
  result.negative_ = negative;
  result.Normalize();
  *out = std::move(result);
  return true;
}

void BigInt::MulAddSmall(std::vector<uint32_t>* limbs, uint32_t mul,
                         uint32_t add) {
  uint64_t carry = add;
  for (uint32_t& limb : *limbs) {
    uint64_t cur = static_cast<uint64_t>(limb) * mul + carry;
    limb = static_cast<uint32_t>(cur & 0xffffffffu);
    carry = cur >> 32;
  }
  if (carry != 0) limbs->push_back(static_cast<uint32_t>(carry));
}

uint32_t BigInt::DivSmall(std::vector<uint32_t>* limbs, uint32_t divisor) {
  uint64_t rem = 0;
  for (size_t i = limbs->size(); i-- > 0;) {
    uint64_t cur = (rem << 32) | (*limbs)[i];
    (*limbs)[i] = static_cast<uint32_t>(cur / divisor);
    rem = cur % divisor;
  }
  Trim(limbs);
  return static_cast<uint32_t>(rem);
}

void BigInt::Trim(std::vector<uint32_t>* limbs) {
  while (!limbs->empty() && limbs->back() == 0) limbs->pop_back();
}

void BigInt::Normalize() {
  Trim(&limbs_);
  if (limbs_.empty()) negative_ = false;
}

int BigInt::CompareMagnitude(const std::vector<uint32_t>& a,
                             const std::vector<uint32_t>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

std::vector<uint32_t> BigInt::AddMagnitude(const std::vector<uint32_t>& a,
                                           const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  out.reserve(std::max(a.size(), b.size()) + 1);
  uint64_t carry = 0;
  for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    uint64_t sum = carry;
    if (i < a.size()) sum += a[i];
    if (i < b.size()) sum += b[i];
    out.push_back(static_cast<uint32_t>(sum & 0xffffffffu));
    carry = sum >> 32;
  }
  if (carry != 0) out.push_back(static_cast<uint32_t>(carry));
  return out;
}

std::vector<uint32_t> BigInt::SubMagnitude(const std::vector<uint32_t>& a,
                                           const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  out.reserve(a.size());
  int64_t borrow = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a[i]) - borrow -
                   (i < b.size() ? static_cast<int64_t>(b[i]) : 0);
    if (diff < 0) {
      diff += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.push_back(static_cast<uint32_t>(diff));
  }
  Trim(&out);
  return out;
}

std::vector<uint32_t> BigInt::MulMagnitude(const std::vector<uint32_t>& a,
                                           const std::vector<uint32_t>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<uint32_t> out(a.size() + b.size(), 0);
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < b.size(); ++j) {
      uint64_t cur = static_cast<uint64_t>(a[i]) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    size_t k = i + b.size();
    while (carry != 0) {
      uint64_t cur = out[k] + carry;
      out[k] = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++k;
    }
  }
  Trim(&out);
  return out;
}

void BigInt::DivModMagnitude(const std::vector<uint32_t>& a,
                             const std::vector<uint32_t>& b,
                             std::vector<uint32_t>* quotient,
                             std::vector<uint32_t>* remainder) {
  if (CompareMagnitude(a, b) < 0) {
    quotient->clear();
    *remainder = a;
    return;
  }
  if (b.size() == 1) {
    *quotient = a;
    uint32_t rem = DivSmall(quotient, b[0]);
    remainder->clear();
    if (rem != 0) remainder->push_back(rem);
    return;
  }
  // Knuth's Algorithm D (TAOCP 4.3.1). Shift both operands left until the
  // divisor's top limb has its high bit set; then the quotient digit
  // estimated from the top two limbs of the running remainder is at most
  // two too large, and the qhat test below removes all but rare off-by-ones,
  // which the add-back step corrects.
  const size_t n = b.size();
  const size_t m = a.size() - n;
  const int shift = __builtin_clz(b.back());
  // Limb i of x << shift; i may be x.size(), the carry-out limb.
  auto shifted = [shift](const std::vector<uint32_t>& x, size_t i) {
    uint32_t hi = i < x.size() ? x[i] << shift : 0;
    uint32_t lo = shift != 0 && i > 0 ? x[i - 1] >> (32 - shift) : 0;
    return hi | lo;
  };
  std::vector<uint32_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = shifted(b, i);
  std::vector<uint32_t> u(a.size() + 1);
  for (size_t i = 0; i <= a.size(); ++i) u[i] = shifted(a, i);

  quotient->assign(m + 1, 0);
  for (size_t j = m + 1; j-- > 0;) {
    const uint64_t top = (static_cast<uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    uint64_t qhat = top / v[n - 1];
    uint64_t rhat = top % v[n - 1];
    while (qhat >= kBase || qhat * v[n - 2] > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= kBase) break;
    }
    // u[j .. j+n] -= qhat * v.
    uint64_t carry = 0;
    int64_t borrow = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t product = qhat * v[i] + carry;
      carry = product >> 32;
      int64_t diff = static_cast<int64_t>(u[i + j]) -
                     static_cast<int64_t>(product & 0xffffffffu) - borrow;
      u[i + j] = static_cast<uint32_t>(diff);
      borrow = diff < 0 ? 1 : 0;
    }
    int64_t diff = static_cast<int64_t>(u[j + n]) -
                   static_cast<int64_t>(carry) - borrow;
    u[j + n] = static_cast<uint32_t>(diff);
    if (diff < 0) {
      // qhat was one too large: add v back once.
      --qhat;
      uint64_t sum_carry = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t sum = static_cast<uint64_t>(u[i + j]) + v[i] + sum_carry;
        u[i + j] = static_cast<uint32_t>(sum & 0xffffffffu);
        sum_carry = sum >> 32;
      }
      u[j + n] = static_cast<uint32_t>(u[j + n] + sum_carry);
    }
    (*quotient)[j] = static_cast<uint32_t>(qhat);
  }
  Trim(quotient);
  // The remainder is u's low n limbs, shifted back.
  remainder->assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    (*remainder)[i] =
        (u[i] >> shift) | (shift != 0 ? u[i + 1] << (32 - shift) : 0);
  }
  Trim(remainder);
}

int BigInt::Compare(const BigInt& other) const {
  if (negative_ != other.negative_) return negative_ ? -1 : 1;
  int mag = CompareMagnitude(limbs_, other.limbs_);
  return negative_ ? -mag : mag;
}

BigInt BigInt::operator-() const {
  BigInt out = *this;
  if (!out.is_zero()) out.negative_ = !out.negative_;
  return out;
}

BigInt BigInt::operator+(const BigInt& other) const {
  BigInt out;
  if (negative_ == other.negative_) {
    out.limbs_ = AddMagnitude(limbs_, other.limbs_);
    out.negative_ = negative_;
  } else if (CompareMagnitude(limbs_, other.limbs_) >= 0) {
    out.limbs_ = SubMagnitude(limbs_, other.limbs_);
    out.negative_ = negative_;
  } else {
    out.limbs_ = SubMagnitude(other.limbs_, limbs_);
    out.negative_ = other.negative_;
  }
  out.Normalize();
  return out;
}


BigInt BigInt::operator*(const BigInt& other) const {
  BigInt out;
  out.limbs_ = MulMagnitude(limbs_, other.limbs_);
  out.negative_ = negative_ != other.negative_;
  out.Normalize();
  return out;
}

BigInt BigInt::operator/(const BigInt& other) const {
  BigInt quotient;
  std::vector<uint32_t> remainder;
  DivModMagnitude(limbs_, other.limbs_, &quotient.limbs_, &remainder);
  quotient.negative_ = negative_ != other.negative_;
  quotient.Normalize();
  return quotient;
}

BigInt BigInt::operator%(const BigInt& other) const {
  std::vector<uint32_t> quotient;
  BigInt remainder;
  DivModMagnitude(limbs_, other.limbs_, &quotient, &remainder.limbs_);
  remainder.negative_ = negative_;
  remainder.Normalize();
  return remainder;
}

BigInt BigInt::Abs() const {
  BigInt out = *this;
  out.negative_ = false;
  return out;
}

BigInt BigInt::Gcd(const BigInt& a, const BigInt& b) {
  BigInt x = a.Abs();
  BigInt y = b.Abs();
  while (!y.is_zero()) {
    if (x.limbs_.size() <= 2 && y.limbs_.size() <= 2) {
      return FromInt128(Gcd64(Low64(x.limbs_), Low64(y.limbs_)));
    }
    BigInt r = x % y;
    x = std::move(y);
    y = std::move(r);
  }
  return x;
}

uint64_t BigInt::Gcd64(uint64_t a, uint64_t b) {
  // Binary gcd: shifts and subtractions, no division.
  if (a == 0) return b;
  if (b == 0) return a;
  const int shift = __builtin_ctzll(a | b);
  a >>= __builtin_ctzll(a);
  do {
    b >>= __builtin_ctzll(b);
    if (a > b) std::swap(a, b);
    b -= a;
  } while (b != 0);
  return a << shift;
}

bool BigInt::ToInt64(int64_t* out) const {
  if (limbs_.size() > 2) return false;
  uint64_t magnitude = 0;
  if (limbs_.size() >= 1) magnitude = limbs_[0];
  if (limbs_.size() == 2) magnitude |= static_cast<uint64_t>(limbs_[1]) << 32;
  if (negative_) {
    if (magnitude > (uint64_t{1} << 63)) return false;
    *out = static_cast<int64_t>(~magnitude + 1);
  } else {
    if (magnitude > static_cast<uint64_t>(INT64_MAX)) return false;
    *out = static_cast<int64_t>(magnitude);
  }
  return true;
}

std::string BigInt::ToString() const {
  if (is_zero()) return "0";
  // Peel base-10^9 chunks, least significant first: one division per nine
  // digits.
  std::vector<uint32_t> work = limbs_;
  std::vector<uint32_t> chunks;
  while (!work.empty()) chunks.push_back(DivSmall(&work, kDecimalChunk));
  std::string out = negative_ ? "-" : "";
  out += std::to_string(chunks.back());
  for (size_t i = chunks.size() - 1; i-- > 0;) {
    std::string chunk = std::to_string(chunks[i]);
    out.append(9 - chunk.size(), '0');
    out += chunk;
  }
  return out;
}

size_t BigInt::Hash() const {
  size_t h = negative_ ? kHashSeed : 0;
  for (uint32_t limb : limbs_) h = MixLimb(h, limb);
  return h;
}

size_t BigInt::HashInt64(int64_t value) {
  size_t h = value < 0 ? kHashSeed : 0;
  uint64_t magnitude = value < 0 ? ~static_cast<uint64_t>(value) + 1
                                 : static_cast<uint64_t>(value);
  for (; magnitude != 0; magnitude >>= 32) {
    h = MixLimb(h, static_cast<uint32_t>(magnitude & 0xffffffffu));
  }
  return h;
}

}  // namespace cqlopt
