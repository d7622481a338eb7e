// Constant-time check for Ed25519 key generation and signing, by the
// ctgrind technique: secret bytes are marked as undefined memory, so
// valgrind memcheck reports every conditional branch or memory index
// that depends on them ("Conditional jump or move depends on
// uninitialised value(s)", "Use of uninitialised value").
//
// The seed is marked undefined before KeyPair::FromSeed; everything
// derived from it (the expanded secret scalar and nonce prefix, the
// nonce r, the scalar multiplications, s = r + k a) inherits that.
// Only published outputs are declassified: the public key, and each
// signature's R encoding and s.
//
//   valgrind --error-exitcode=1 ./tools/ct_sign_check
//
// Built without <valgrind/memcheck.h> the markers compile to nothing
// and the program is a plain functional check (ctest ct_sign_check):
// the keys and signatures must match RFC 8032 and verify.
#include <array>
#include <cstdio>
#include <cstring>
#include <string>

#include "crypto/ed25519.h"
#include "util/bytes.h"

#ifdef VEGVISIR_HAVE_MEMCHECK
#include <valgrind/memcheck.h>
#define VEGVISIR_SECRET(p, n) VALGRIND_MAKE_MEM_UNDEFINED((p), (n))
#define VEGVISIR_PUBLIC(p, n) VALGRIND_MAKE_MEM_DEFINED((p), (n))
#else
#define VEGVISIR_SECRET(p, n) ((void)(p), (void)(n))
#define VEGVISIR_PUBLIC(p, n) ((void)(p), (void)(n))
#endif

namespace {

using namespace vegvisir;

// RFC 8032 §7.1, tests 1 and 2 (same shape as tests/crypto_test.cpp).
struct Vector {
  const char* secret;
  const char* public_key;
  const char* message;
  const char* signature;
};

constexpr Vector kVectors[] = {
    {"9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
     "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a", "",
     "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
     "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
    {"4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
     "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c", "72",
     "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
     "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
};

bool Check(const Vector& v) {
  std::array<std::uint8_t, crypto::kEd25519SeedSize> seed;
  std::memcpy(seed.data(), MustFromHex(v.secret).data(), seed.size());
  VEGVISIR_SECRET(seed.data(), seed.size());

  const crypto::KeyPair kp = crypto::KeyPair::FromSeed(seed);
  VEGVISIR_PUBLIC(kp.public_key().bytes.data(), kp.public_key().bytes.size());

  const Bytes message = MustFromHex(v.message);
  crypto::Signature sig = kp.Sign(message);
  VEGVISIR_PUBLIC(sig.bytes.data(), 32);       // R
  VEGVISIR_PUBLIC(sig.bytes.data() + 32, 32);  // s

  const std::string pk_hex = ToHex(kp.public_key().bytes);
  const std::string sig_hex = ToHex(sig.bytes);
  const bool ok = pk_hex == v.public_key && sig_hex == v.signature &&
                  crypto::Verify(kp.public_key(), message, sig);
  std::printf("%s pk=%.16s... sig=%.16s...\n", ok ? "ok  " : "FAIL",
              pk_hex.c_str(), sig_hex.c_str());
  return ok;
}

}  // namespace

int main() {
  bool ok = true;
  for (const Vector& v : kVectors) ok = Check(v) && ok;
  return ok ? 0 : 1;
}
