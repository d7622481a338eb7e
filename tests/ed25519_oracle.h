// Reference Ed25519 verification for differential tests and the
// fuzz_ed25519_verify target.
//
// The textbook algorithm, kept deliberately slow and obvious: two
// bit-serial double-and-add ladders over the public GeAdd/GeDouble,
// accepting iff [s]B == R + [k]A with the same decoding rules as
// crypto::Verify (canonical s, decompressed A and R, cofactorless
// projective equality). Any verdict on which Verify disagrees with
// this is a bug in the fast path.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>

#include "crypto/ge25519.h"
#include "crypto/sc25519.h"
#include "crypto/sha512.h"
#include "util/bytes.h"

namespace vegvisir::crypto::oracle {

inline GePoint LadderMult(const GePoint& p,
                          const std::array<std::uint8_t, 32>& scalar_le) {
  GePoint r = GeIdentity();
  for (int bit = 255; bit >= 0; --bit) {
    r = GeDouble(r);
    if ((scalar_le[bit / 8] >> (bit % 8)) & 1) r = GeAdd(r, p);
  }
  return r;
}

// pk32: 32-byte public key; sig64: R || s.
inline bool LadderVerify(ByteSpan pk32, ByteSpan message, ByteSpan sig64) {
  const ByteSpan r_enc = sig64.first(32);
  const ByteSpan s_enc = sig64.subspan(32, 32);
  if (!ScIsCanonical(s_enc)) return false;
  const auto a = GeDecompress(pk32);
  const auto r = GeDecompress(r_enc);
  if (!a || !r) return false;
  Sha512 h;
  h.Update(r_enc);
  h.Update(pk32);
  h.Update(message);
  const Sha512Digest k_hash = h.Finish();
  const Scalar k = ScFromBytesModL(ByteSpan(k_hash.data(), k_hash.size()));
  std::array<std::uint8_t, 32> s;
  std::memcpy(s.data(), s_enc.data(), 32);
  return GeEqual(LadderMult(GeBasePoint(), s),
                 GeAdd(*r, LadderMult(*a, ScToBytes(k))));
}

}  // namespace vegvisir::crypto::oracle
