// Fuzz target: Ed25519 signature verification (crypto::Verify).
//
// Input: 32-byte public key || 64-byte signature (R || s) || message.
// Oracle: Verify's verdict must equal the bit-serial reference's
// (tests/ed25519_oracle.h) on every input, including small-order,
// mixed-order and non-canonical point encodings and non-canonical s;
// and verifying under PrepareKey(pk) must give the same verdict.
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "crypto/ed25519.h"
#include "ed25519_oracle.h"
#include "fuzz_util.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace vegvisir;
  if (size < crypto::kEd25519PublicKeySize + crypto::kEd25519SignatureSize) {
    return 0;
  }
  crypto::PublicKey pk;
  crypto::Signature sig;
  std::memcpy(pk.bytes.data(), data, pk.bytes.size());
  std::memcpy(sig.bytes.data(), data + pk.bytes.size(), sig.bytes.size());
  const std::size_t header = pk.bytes.size() + sig.bytes.size();
  const ByteSpan message(data + header, size - header);
  const bool verdict = crypto::Verify(pk, message, sig);
  if (verdict != crypto::oracle::LadderVerify(pk.bytes, message, sig.bytes)) {
    fuzz::OracleFailure("fuzz_ed25519_verify",
                        "Verify disagrees with the bit-serial reference");
  }
  if (crypto::Verify(crypto::PrepareKey(pk), message, sig) != verdict) {
    fuzz::OracleFailure("fuzz_ed25519_verify",
                        "prepared-key Verify disagrees with Verify");
  }
  return 0;
}
