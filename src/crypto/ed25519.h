// Ed25519 signatures (RFC 8032), built on fe25519/sc25519/ge25519.
//
// Every Vegvisir block and certificate carries one of these
// signatures; the implementation is validated against the RFC 8032
// test vectors in tests/crypto_test.cpp.
//
// Timing: KeyPair::FromSeed and KeyPair::Sign are constant-time: no
// branch or memory index depends on the seed or anything derived from
// it (tools/ct_sign_check checks this under valgrind memcheck). Verify
// is variable-time, which is safe because everything it reads (key,
// message, signature) is public.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/drbg.h"
#include "crypto/ge25519.h"
#include "util/bytes.h"

namespace vegvisir::crypto {

inline constexpr std::size_t kEd25519SeedSize = 32;
inline constexpr std::size_t kEd25519PublicKeySize = 32;
inline constexpr std::size_t kEd25519SignatureSize = 64;

struct PublicKey {
  std::array<std::uint8_t, kEd25519PublicKeySize> bytes;

  auto operator<=>(const PublicKey&) const = default;
};

struct Signature {
  std::array<std::uint8_t, kEd25519SignatureSize> bytes;

  auto operator<=>(const Signature&) const = default;
};

// A signing key. Only the 32-byte seed is secret; the expanded scalar
// is derived on demand (signing is rare compared to verification).
class KeyPair {
 public:
  // Derives the key pair from a 32-byte seed (RFC 8032 §5.1.5).
  static KeyPair FromSeed(const std::array<std::uint8_t, kEd25519SeedSize>& seed);

  // Draws a fresh seed from the DRBG.
  static KeyPair Generate(Drbg& drbg);

  const PublicKey& public_key() const { return public_key_; }
  const std::array<std::uint8_t, kEd25519SeedSize>& seed() const {
    return seed_;
  }

  // Deterministic signature over `message` (RFC 8032 §5.1.6).
  Signature Sign(ByteSpan message) const;

 private:
  KeyPair() = default;

  std::array<std::uint8_t, kEd25519SeedSize> seed_;
  PublicKey public_key_;
};

// A public key with the per-key half of verification done once: A
// decompressed (non-canonical y accepted), negated, and expanded into
// the odd-multiples table of the joint scalar pass. About 1.3 KB.
// Nothing mutates it after PrepareKey, so one instance (e.g. behind a
// shared_ptr<const PreparedKey>) may serve every verifying thread.
struct PreparedKey {
  PublicKey public_key{};
  // False when A is not a curve point; every Verify under it fails.
  bool valid = false;
  GeOddMultiples neg_a{};  // -A, 3(-A), ..., 15(-A); set iff valid
};

PreparedKey PrepareKey(const PublicKey& public_key);

// Signature verification (RFC 8032 §5.1.7): checks canonical s,
// decompresses R (non-canonical y accepted), and tests the
// cofactorless equation [s]B == R + [k]A.
bool Verify(const PreparedKey& key, ByteSpan message,
            const Signature& signature);

// The same for a key used once: Verify(PrepareKey(public_key), ...).
bool Verify(const PublicKey& public_key, ByteSpan message,
            const Signature& signature);

}  // namespace vegvisir::crypto
