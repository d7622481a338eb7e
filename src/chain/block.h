// Blocks (paper §IV-D, Fig. 2).
//
// A block = header + transactions + creator signature. The header
// carries the creator's user id, a timestamp, an optional physical
// location, and the hashes of all parent blocks. The block hash is
// the SHA-256 of the full canonical serialization (including the
// signature), so tampering with any field — or with any ancestor,
// through the parent-hash links — changes the hash and is detected.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "chain/transaction.h"
#include "chain/types.h"
#include "crypto/ed25519.h"
#include "serial/codec.h"
#include "util/status.h"

namespace vegvisir::chain {

// "if possible a physical location" — GPS degrees.
struct GeoLocation {
  double latitude = 0.0;
  double longitude = 0.0;

  bool operator==(const GeoLocation&) const = default;
};

struct BlockHeader {
  std::string user_id;
  std::uint64_t timestamp_ms = 0;
  std::optional<GeoLocation> location;
  // Sorted ascending — part of canonical form. Empty only for genesis.
  std::vector<BlockHash> parents;

  void Encode(serial::Writer* w) const;
  static Status Decode(serial::Reader* r, BlockHeader* out);

  bool operator==(const BlockHeader&) const = default;
};

class Block {
 public:
  Block() = default;

  // Assembles and signs a block. Sorts `parents` into canonical order.
  // An empty transaction list is legal and is how witness blocks are
  // made (paper §IV-H).
  static Block Create(BlockHeader header, std::vector<Transaction> txns,
                      const crypto::KeyPair& signer);

  const BlockHeader& header() const { return header_; }
  const std::vector<Transaction>& transactions() const { return txns_; }
  const crypto::Signature& signature() const { return signature_; }
  const BlockHash& hash() const { return hash_; }

  // The bytes covered by the creator's signature (header + txns).
  Bytes SigningPayload() const;

  // Full canonical serialization (wire format / hashing preimage).
  Bytes Serialize() const;
  static StatusOr<Block> Deserialize(ByteSpan data);

  // Serialized size in bytes (bandwidth/storage accounting).
  std::size_t EncodedSize() const { return encoded_size_; }

  // Signature check against the given key (validation uses the key
  // from the creator's certificate).
  bool VerifySignature(const crypto::PublicKey& key) const;
  bool VerifySignature(const crypto::PreparedKey& key) const;

  bool operator==(const Block& other) const { return hash_ == other.hash_; }

 private:
  void RecomputeDerived();

  BlockHeader header_;
  std::vector<Transaction> txns_;
  crypto::Signature signature_{};
  BlockHash hash_{};
  std::size_t encoded_size_ = 0;
};

}  // namespace vegvisir::chain
