#include "crypto/sc25519.h"

#include <cstring>

namespace vegvisir::crypto {
namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

// L, little-endian words.
constexpr u64 kL[4] = {
    0x5812631a5cf5d3edULL,
    0x14def9dea2f79cd6ULL,
    0x0000000000000000ULL,
    0x1000000000000000ULL,
};

// floor(2^512 / L), the Barrett constant for 64-bit words.
constexpr u64 kMu[5] = {
    0xed9ce5a30a2c131bULL, 0x2106215d086329a7ULL, 0xffffffffffffffebULL,
    0xffffffffffffffffULL, 0x000000000000000fULL,
};

// out = x - L (mod 2^256); returns 1 iff x < L, i.e. the borrow.
u64 SubL(const u64 x[4], u64 out[4]) {
  u64 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 d = (u128)x[i] - kL[i] - borrow;
    out[i] = (u64)d;
    borrow = (u64)(d >> 64) & 1;
  }
  return borrow;
}

// r -= L if r >= L, by mask rather than branch.
void CondSubL(u64 r[4]) {
  u64 t[4];
  const u64 keep = 0 - SubL(r, t);  // all ones iff r < L
  for (int i = 0; i < 4; ++i) r[i] = (r[i] & keep) | (t[i] & ~keep);
}

// Reduces a 512-bit little-endian value mod L (Barrett, HAC 14.42 with
// b = 2^64, k = 4). The quotient estimate q3 is at most 2 below
// floor(x / L), so x - q3 L < 3L and two masked subtractions finish.
// No branch or memory index depends on x.
void ReduceModL(const u64 x[8], u64 out[4]) {
  // q3 = floor(floor(x / 2^192) * mu / 2^320).
  u64 q2[10] = {0};
  for (int i = 0; i < 5; ++i) {
    u128 carry = 0;
    for (int j = 0; j < 5; ++j) {
      carry += (u128)x[3 + i] * kMu[j] + q2[i + j];
      q2[i + j] = (u64)carry;
      carry >>= 64;
    }
    q2[i + 5] = (u64)carry;
  }
  const u64* q3 = q2 + 5;

  // r = x - q3 * L lies in [0, 3L), below 2^256, so it can be
  // computed mod 2^256 from the low four words alone.
  u64 q3l[4] = {0};
  for (int i = 0; i < 4; ++i) {
    u128 carry = 0;
    for (int j = 0; i + j < 4; ++j) {
      carry += (u128)q3[i] * kL[j] + q3l[i + j];
      q3l[i + j] = (u64)carry;
      carry >>= 64;
    }
  }
  u64 r[4];
  u64 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 d = (u128)x[i] - q3l[i] - borrow;
    r[i] = (u64)d;
    borrow = (u64)(d >> 64) & 1;
  }
  CondSubL(r);
  CondSubL(r);
  std::memcpy(out, r, sizeof(r));
}

}  // namespace

Scalar ScZero() { return Scalar{{0, 0, 0, 0}}; }

Scalar ScFromBytesModL(ByteSpan bytes) {
  std::uint8_t buf[64] = {0};
  std::memcpy(buf, bytes.data(), std::min<std::size_t>(bytes.size(), 64));
  u64 words[8];
  for (int i = 0; i < 8; ++i) {
    std::memcpy(&words[i], buf + 8 * i, 8);  // little-endian host
  }
  Scalar s;
  ReduceModL(words, s.w);
  return s;
}

std::array<std::uint8_t, 32> ScToBytes(const Scalar& s) {
  std::array<std::uint8_t, 32> out;
  for (int i = 0; i < 4; ++i) std::memcpy(out.data() + 8 * i, &s.w[i], 8);
  return out;
}

Scalar ScAdd(const Scalar& a, const Scalar& b) {
  // a, b < L < 2^253 so there is no carry out of word 3, and one
  // subtraction brings a + b < 2L below L.
  Scalar r;
  u128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    carry += (u128)a.w[i] + b.w[i];
    r.w[i] = (u64)carry;
    carry >>= 64;
  }
  CondSubL(r.w);
  return r;
}

Scalar ScMulAdd(const Scalar& a, const Scalar& b, const Scalar& c) {
  // Schoolbook 4x4 -> 8-word product plus c, then reduce.
  u64 prod[8] = {c.w[0], c.w[1], c.w[2], c.w[3], 0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) {
    u128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      carry += (u128)a.w[i] * b.w[j] + prod[i + j];
      prod[i + j] = (u64)carry;
      carry >>= 64;
    }
    prod[i + 4] = (u64)carry;  // not yet written by an earlier row
  }
  Scalar r;
  ReduceModL(prod, r.w);
  return r;
}

bool ScIsCanonical(ByteSpan bytes32) {
  if (bytes32.size() != 32) return false;
  u64 words[4];
  for (int i = 0; i < 4; ++i) std::memcpy(&words[i], bytes32.data() + 8 * i, 8);
  u64 unused[4];
  return SubL(words, unused) == 1;
}

bool ScIsZero(const Scalar& s) {
  return (s.w[0] | s.w[1] | s.w[2] | s.w[3]) == 0;
}

}  // namespace vegvisir::crypto
