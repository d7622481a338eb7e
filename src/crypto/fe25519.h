// Field arithmetic modulo p = 2^255 - 19, for Ed25519.
//
// Elements are stored as 5 unsigned limbs of nominally 51 bits each
// (radix 2^51), the standard portable representation. Products are
// accumulated in unsigned __int128.
//
// Limb bounds. An element need not be fully carried; each function
// states what it accepts and returns:
//   reduced: every limb < 2^51 + 2^15. FeMul, FeSquare, FeSub, FeNeg,
//            FeFromBytes, FeFromU64 and FeConstD/FeConstSqrtM1 return
//            reduced elements.
//   loose:   every limb < 2^53 - 2^7. FeAdd of two reduced elements is
//            loose; FeAdd does no carrying at all.
// FeMul and FeSquare accept any limbs < 2^54, so the output of FeAdd
// or FeSub feeds them directly. FeSub and FeNeg accept a loose
// subtrahend. FeToBytes and the predicates accept any limbs < 2^63.
// tests/crypto_test.cpp drives every operation at these bounds.
//
// Timing: every function here runs in time independent of the limb
// values (no branch, no memory index on data), including FeToBytes'
// canonicalization. FeIsZero, FeEqual and FeIsNegative return a bool;
// only signature verification branches on one, and only on public data
// (point decompression and the final equality test).
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace vegvisir::crypto {

struct Fe {
  std::uint64_t v[5];
};

// 0 and 1.
Fe FeZero();
Fe FeOne();
Fe FeFromU64(std::uint64_t x);

// h = f + g, no carry. f, g reduced -> h loose.
Fe FeAdd(const Fe& f, const Fe& g);
// h = f - g. f limbs < 2^54, g loose -> h reduced.
Fe FeSub(const Fe& f, const Fe& g);
// h = -f. f loose -> h reduced.
Fe FeNeg(const Fe& f);
// h = f * g. f, g limbs < 2^54 -> h reduced.
Fe FeMul(const Fe& f, const Fe& g);
// h = f^2, 15 limb products instead of FeMul's 25. f limbs < 2^54 ->
// h reduced.
Fe FeSquare(const Fe& f);
// h = f^-1 (via Fermat: f^(p-2)); 0 maps to 0. f limbs < 2^54.
Fe FeInvert(const Fe& f);
// h = f^((p-5)/8) = f^(2^252 - 3); used by point decompression.
Fe FePow22523(const Fe& f);

// *f = g if move == 1, unchanged if move == 0; move must be 0 or 1.
void FeCmov(Fe* f, const Fe& g, std::uint64_t move);

// Canonical 32-byte little-endian encoding (top bit clear).
std::array<std::uint8_t, 32> FeToBytes(const Fe& f);
// Loads 32 little-endian bytes; the top bit (bit 255) is ignored.
// Values in [p, 2^255) load unreduced and behave as their residue.
Fe FeFromBytes(ByteSpan bytes);

// True iff f == 0 (mod p).
bool FeIsZero(const Fe& f);
// True iff f == g (mod p). g loose.
bool FeEqual(const Fe& f, const Fe& g);
// The low bit of the canonical encoding ("sign" in RFC 8032).
bool FeIsNegative(const Fe& f);

// Curve constants (computed once, on first use).
const Fe& FeConstD();       // d = -121665/121666
const Fe& FeConstD2();      // 2d (loose)
const Fe& FeConstSqrtM1();  // sqrt(-1) = 2^((p-1)/4)

}  // namespace vegvisir::crypto
