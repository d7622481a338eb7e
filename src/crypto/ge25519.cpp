#include "crypto/ge25519.h"

namespace vegvisir::crypto {
namespace {

// Projective (X : Y : Z) with x = X/Z, y = Y/Z: the form a doubling
// chain carries, since doubling never reads T.
struct GeProjective {
  Fe x, y, z;
};

// Completed ((X : Z), (Y : T)) with x = X/Z, y = Y/T: the raw output of
// one addition or doubling, converted to whatever its consumer reads.
struct GeCompleted {
  Fe x, y, z, t;
};

GePoint ToExtended(const GeCompleted& p) {
  return GePoint{FeMul(p.x, p.t), FeMul(p.y, p.z), FeMul(p.z, p.t),
                 FeMul(p.x, p.y)};
}

GeProjective ToProjective(const GeCompleted& p) {
  return GeProjective{FeMul(p.x, p.t), FeMul(p.y, p.z), FeMul(p.z, p.t)};
}

GeCached ToCached(const GePoint& p) {
  return GeCached{FeAdd(p.y, p.x), FeSub(p.y, p.x), FeAdd(p.z, p.z),
                  FeMul(p.t, FeConstD2())};
}

GeCached CachedIdentity() {
  return GeCached{FeOne(), FeOne(), FeFromU64(2), FeZero()};
}

// dbl-2008-hwcd with a = -1.
GeCompleted Double(const GeProjective& p) {
  const Fe xx = FeSquare(p.x);
  const Fe yy = FeSquare(p.y);
  const Fe zz = FeSquare(p.z);
  const Fe zz2 = FeAdd(zz, zz);
  const Fe sum_sq = FeSquare(FeAdd(p.x, p.y));
  const Fe y3 = FeAdd(yy, xx);
  const Fe z3 = FeSub(yy, xx);
  return GeCompleted{FeSub(sum_sq, y3), y3, z3, FeSub(zz2, z3)};
}

GeCompleted Double(const GePoint& p) {
  return Double(GeProjective{p.x, p.y, p.z});
}

// add-2008-hwcd-3: p + q, and p - q by swapping q's Y+X / Y-X and
// negating its 2dT.
GeCompleted Add(const GePoint& p, const GeCached& q) {
  const Fe a = FeMul(FeAdd(p.y, p.x), q.y_plus_x);
  const Fe b = FeMul(FeSub(p.y, p.x), q.y_minus_x);
  const Fe c = FeMul(p.t, q.t2d);
  const Fe d = FeMul(p.z, q.z2);
  return GeCompleted{FeSub(a, b), FeAdd(a, b), FeAdd(d, c), FeSub(d, c)};
}

GeCompleted Sub(const GePoint& p, const GeCached& q) {
  const Fe a = FeMul(FeAdd(p.y, p.x), q.y_minus_x);
  const Fe b = FeMul(FeSub(p.y, p.x), q.y_plus_x);
  const Fe c = FeMul(p.t, q.t2d);
  const Fe d = FeMul(p.z, q.z2);
  return GeCompleted{FeSub(a, b), FeAdd(a, b), FeSub(d, c), FeAdd(d, c)};
}

// ------------------------------------------------------ verification

// Signed sliding-window recoding (ref10's slide): digits r[i] in
// {0, +-1, +-3, ..., +-15} with sum r[i] 2^i == scalar, each nonzero
// digit followed by at least four zeros. scalar < 2^253.
std::array<std::int8_t, 256> Slide(const std::array<std::uint8_t, 32>& a) {
  std::array<std::int8_t, 256> r;
  for (int i = 0; i < 256; ++i) r[i] = 1 & (a[i >> 3] >> (i & 7));
  for (int i = 0; i < 256; ++i) {
    if (!r[i]) continue;
    for (int b = 1; b <= 6 && i + b < 256; ++b) {
      if (!r[i + b]) continue;
      const int shifted = r[i + b] << b;
      if (r[i] + shifted <= 15) {
        r[i] = static_cast<std::int8_t>(r[i] + shifted);
        r[i + b] = 0;
      } else if (r[i] - shifted >= -15) {
        r[i] = static_cast<std::int8_t>(r[i] - shifted);
        for (int k = i + b; k < 256; ++k) {
          if (!r[k]) {
            r[k] = 1;
            break;
          }
          r[k] = 0;
        }
      } else {
        break;
      }
    }
  }
  return r;
}

void AddDigit(GeCompleted* t, const GeOddMultiples& table,
              std::int8_t digit) {
  if (digit == 0) return;
  const GePoint u = ToExtended(*t);
  *t = digit > 0 ? Add(u, table[digit / 2]) : Sub(u, table[-digit / 2]);
}

// ------------------------------------------------ fixed-base comb

// Comb()[i][j] = (j + 1) * 16^(2i) * B.
using CombTable = std::array<std::array<GeCached, 8>, 32>;

const CombTable& Comb() {
  static const CombTable table = [] {
    CombTable t;
    GePoint row_base = GeBasePoint();
    for (auto& row : t) {
      row[0] = ToCached(row_base);
      GePoint multiple = row_base;
      for (int j = 1; j < 8; ++j) {
        multiple = ToExtended(Add(multiple, row[0]));
        row[j] = ToCached(multiple);
      }
      for (int k = 0; k < 8; ++k) row_base = ToExtended(Double(row_base));
    }
    return t;
  }();
  return table;
}

void CachedCmov(GeCached* t, const GeCached& u, std::uint64_t move) {
  FeCmov(&t->y_plus_x, u.y_plus_x, move);
  FeCmov(&t->y_minus_x, u.y_minus_x, move);
  FeCmov(&t->z2, u.z2, move);
  FeCmov(&t->t2d, u.t2d, move);
}

// digit * row[0] without a branch or table index that depends
// on digit: every entry of the row is read, the matching one kept by
// mask, and the result negated by mask.
GeCached CombSelect(const CombTable::value_type& row, std::int8_t digit) {
  const auto d = static_cast<std::uint64_t>(static_cast<std::int64_t>(digit));
  const std::uint64_t negative = d >> 63;
  const std::uint64_t magnitude = (d ^ (0 - negative)) + negative;
  GeCached t = CachedIdentity();
  for (std::uint64_t j = 0; j < 8; ++j) {
    // 1 iff magnitude == j + 1 (both < 2^63).
    const std::uint64_t hit = ((magnitude ^ (j + 1)) - 1) >> 63;
    CachedCmov(&t, row[j], hit);
  }
  const GeCached minus{t.y_minus_x, t.y_plus_x, t.z2, FeNeg(t.t2d)};
  CachedCmov(&t, minus, negative);
  return t;
}

}  // namespace

GePoint GeIdentity() {
  return GePoint{FeZero(), FeOne(), FeOne(), FeZero()};
}

const GePoint& GeBasePoint() {
  static const GePoint base = [] {
    // Encoded base point: y = 4/5 with sign bit 0 (RFC 8032 §5.1).
    std::array<std::uint8_t, 32> enc;
    enc[0] = 0x58;
    for (int i = 1; i < 32; ++i) enc[i] = 0x66;
    const auto p = GeDecompress(ByteSpan(enc.data(), enc.size()));
    return *p;  // the constant is well-formed by construction
  }();
  return base;
}

GePoint GeAdd(const GePoint& p, const GePoint& q) {
  return ToExtended(Add(p, ToCached(q)));
}

GePoint GeDouble(const GePoint& p) { return ToExtended(Double(p)); }

GePoint GeNeg(const GePoint& p) {
  return GePoint{FeNeg(p.x), p.y, p.z, FeNeg(p.t)};
}

std::array<std::int8_t, 64> GeRadix16(
    const std::array<std::uint8_t, 32>& scalar_le) {
  std::array<std::int8_t, 64> e;
  for (int i = 0; i < 32; ++i) {
    e[2 * i] = static_cast<std::int8_t>(scalar_le[i] & 15);
    e[2 * i + 1] = static_cast<std::int8_t>(scalar_le[i] >> 4);
  }
  // Recentre each digit from [0, 16) to [-8, 8) by carrying into the
  // next; the top digit absorbs the last carry and ends in [0, 8].
  int carry = 0;
  for (int i = 0; i < 63; ++i) {
    const int v = e[i] + carry;
    carry = (v + 8) >> 4;
    e[i] = static_cast<std::int8_t>(v - (carry << 4));
  }
  e[63] = static_cast<std::int8_t>(e[63] + carry);
  return e;
}

GePoint GeBaseTableLookup(int pos, std::int8_t digit) {
  return ToExtended(Add(GeIdentity(), CombSelect(Comb()[pos], digit)));
}

GePoint GeScalarMultBase(const std::array<std::uint8_t, 32>& scalar_le) {
  // sum e[i] 16^i B = 16 * sum_{i odd} e[i] 16^(i-1) B
  //                 +      sum_{i even} e[i] 16^i B,
  // and every 16^(2k) B multiple comes from row k of the comb.
  const auto e = GeRadix16(scalar_le);
  const CombTable& comb = Comb();
  GePoint h = GeIdentity();
  for (int i = 1; i < 64; i += 2) {
    h = ToExtended(Add(h, CombSelect(comb[i / 2], e[i])));
  }
  GeProjective r = ToProjective(Double(h));
  r = ToProjective(Double(r));
  r = ToProjective(Double(r));
  h = ToExtended(Double(r));
  for (int i = 0; i < 64; i += 2) {
    h = ToExtended(Add(h, CombSelect(comb[i / 2], e[i])));
  }
  return h;
}

GeOddMultiples GeOddMultiplesOf(const GePoint& p) {
  GeOddMultiples out;
  out[0] = ToCached(p);
  const GePoint p2 = ToExtended(Double(p));
  for (int i = 1; i < 8; ++i) {
    out[i] = ToCached(ToExtended(Add(p2, out[i - 1])));
  }
  return out;
}

GePoint GeDoubleScalarMultVartime(const GeOddMultiples& a_table,
                                  const std::array<std::uint8_t, 32>& a_scalar,
                                  const std::array<std::uint8_t, 32>& b_scalar) {
  static const GeOddMultiples b_table = GeOddMultiplesOf(GeBasePoint());
  const auto a_digits = Slide(a_scalar);
  const auto b_digits = Slide(b_scalar);

  int i = 255;
  while (i >= 0 && a_digits[i] == 0 && b_digits[i] == 0) --i;
  if (i < 0) return GeIdentity();

  GeProjective r{FeZero(), FeOne(), FeOne()};
  for (;; --i) {
    GeCompleted t = Double(r);
    AddDigit(&t, a_table, a_digits[i]);
    AddDigit(&t, b_table, b_digits[i]);
    if (i == 0) return ToExtended(t);
    r = ToProjective(t);
  }
}

std::array<std::uint8_t, 32> GeCompress(const GePoint& p) {
  const Fe z_inv = FeInvert(p.z);
  const Fe x = FeMul(p.x, z_inv);
  const Fe y = FeMul(p.y, z_inv);
  auto out = FeToBytes(y);
  out[31] |= static_cast<std::uint8_t>(FeToBytes(x)[0] << 7);
  return out;
}

std::optional<GePoint> GeDecompress(ByteSpan bytes32) {
  if (bytes32.size() != 32) return std::nullopt;
  const bool sign = (bytes32[31] & 0x80) != 0;
  const Fe y = FeFromBytes(bytes32);  // ignores bit 255

  // x^2 = (y^2 - 1) / (d*y^2 + 1).
  const Fe y2 = FeSquare(y);
  const Fe u = FeSub(y2, FeOne());
  const Fe v = FeAdd(FeMul(FeConstD(), y2), FeOne());

  // Candidate root: x = u * v^3 * (u * v^7)^((p-5)/8).
  const Fe v3 = FeMul(FeSquare(v), v);
  const Fe v7 = FeMul(FeSquare(v3), v);
  Fe x = FeMul(FeMul(u, v3), FePow22523(FeMul(u, v7)));

  const Fe vx2 = FeMul(v, FeSquare(x));
  if (!FeEqual(vx2, u)) {
    if (FeEqual(vx2, FeNeg(u))) {
      x = FeMul(x, FeConstSqrtM1());
    } else {
      return std::nullopt;  // not a quadratic residue: invalid encoding
    }
  }

  if (FeIsZero(x) && sign) return std::nullopt;  // -0 is not encodable
  if (FeIsNegative(x) != sign) x = FeNeg(x);

  return GePoint{x, y, FeOne(), FeMul(x, y)};
}

bool GeEqual(const GePoint& p, const GePoint& q) {
  return FeEqual(FeMul(p.x, q.z), FeMul(q.x, p.z)) &&
         FeEqual(FeMul(p.y, q.z), FeMul(q.y, p.z));
}

bool GeIsValid(const GePoint& p) {
  // Affine coordinates.
  if (FeIsZero(p.z)) return false;
  const Fe z_inv = FeInvert(p.z);
  const Fe x = FeMul(p.x, z_inv);
  const Fe y = FeMul(p.y, z_inv);
  const Fe t = FeMul(p.t, z_inv);
  if (!FeEqual(t, FeMul(x, y))) return false;
  // -x^2 + y^2 == 1 + d x^2 y^2.
  const Fe x2 = FeSquare(x);
  const Fe y2 = FeSquare(y);
  const Fe lhs = FeSub(y2, x2);
  const Fe rhs = FeAdd(FeOne(), FeMul(FeConstD(), FeMul(x2, y2)));
  return FeEqual(lhs, rhs);
}

}  // namespace vegvisir::crypto
