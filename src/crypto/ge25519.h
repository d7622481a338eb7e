// Edwards-curve group operations for Ed25519.
//
// Points on -x^2 + y^2 = 1 + d x^2 y^2 over GF(2^255 - 19), held in
// extended coordinates (X : Y : Z : T) with x = X/Z, y = Y/Z,
// x*y = T/Z. Formulas are the EFD "add-2008-hwcd-3" (a = -1) addition
// and "dbl-2008-hwcd" doubling; internally the scalar multiplications
// also use the projective (no T), completed and cached forms of
// Bernstein et al., "High-speed high-security signatures" (CHES 2011).
//
// Timing: GeScalarMultBase, GeAdd, GeDouble, GeNeg and GeCompress run
// in time independent of their inputs; GeScalarMultBase is the only
// scalar multiplication that sees secret scalars (key generation and
// the signing nonce). GeDoubleScalarMultVartime, GeDecompress,
// GeEqual and GeIsValid branch and index tables on their inputs and
// are for public data only (signature verification).
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "crypto/fe25519.h"
#include "util/bytes.h"

namespace vegvisir::crypto {

struct GePoint {
  Fe x, y, z, t;
};

// Cached (Y + X, Y - X, 2Z, 2dT): an addend with the work that does
// not depend on the other operand done once, e.g. per table entry.
struct GeCached {
  Fe y_plus_x, y_minus_x, z2, t2d;
};

// p, 3p, 5p, ..., 15p in cached form: the per-point table of the
// joint sliding-window pass (one doubling and seven additions).
using GeOddMultiples = std::array<GeCached, 8>;

// The neutral element (0, 1).
GePoint GeIdentity();

// The standard base point B (decompressed from its RFC 8032 encoding).
const GePoint& GeBasePoint();

GePoint GeAdd(const GePoint& p, const GePoint& q);
GePoint GeDouble(const GePoint& p);
GePoint GeNeg(const GePoint& p);

// [scalar] * B, scalar given as 32 little-endian bytes below 2^255
// (the clamped secret scalar is not reduced mod L). Constant-time
// fixed-base comb over a table of j * 16^(2i) * B built on first use.
GePoint GeScalarMultBase(const std::array<std::uint8_t, 32>& scalar_le);

// The table of a for GeDoubleScalarMultVartime, built once per point
// so a point multiplied often (a signer's key) pays for it once.
GeOddMultiples GeOddMultiplesOf(const GePoint& p);

// [a_scalar] * a + [b_scalar] * B for scalars below 2^253, a given by
// GeOddMultiplesOf(a), in one joint signed-sliding-window pass.
// Variable-time: public inputs only.
GePoint GeDoubleScalarMultVartime(const GeOddMultiples& a_table,
                                  const std::array<std::uint8_t, 32>& a_scalar,
                                  const std::array<std::uint8_t, 32>& b_scalar);

// RFC 8032 point compression: 32 bytes = y with sign(x) in bit 255.
std::array<std::uint8_t, 32> GeCompress(const GePoint& p);

// Decompression; empty if the encoding is not a curve point.
std::optional<GePoint> GeDecompress(ByteSpan bytes32);

// Projective equality: X1*Z2 == X2*Z1 and Y1*Z2 == Y2*Z1.
bool GeEqual(const GePoint& p, const GePoint& q);

// True iff p is on the curve and T is consistent (test support).
bool GeIsValid(const GePoint& p);

// The two steps of GeScalarMultBase, exposed for tests.
//
// Signed radix-16 recoding: 64 digits e[i] in [-8, 8] with
// sum e[i] 16^i == scalar, for any scalar below 2^255.
std::array<std::int8_t, 64> GeRadix16(
    const std::array<std::uint8_t, 32>& scalar_le);
// digit * 16^(2 * pos) * B for pos in [0, 32) and digit in [-8, 8],
// read from the comb table by a masked scan of the whole row.
GePoint GeBaseTableLookup(int pos, std::int8_t digit);

}  // namespace vegvisir::crypto
