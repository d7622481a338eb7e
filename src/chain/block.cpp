#include "chain/block.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "crypto/sha256.h"
#include "serial/limits.h"

namespace vegvisir::chain {
namespace {

// Doubles are serialized via their IEEE-754 bit pattern; identical on
// all supported platforms.
std::uint64_t DoubleBits(double d) { return std::bit_cast<std::uint64_t>(d); }
double DoubleFromBits(std::uint64_t b) { return std::bit_cast<double>(b); }

}  // namespace

void BlockHeader::Encode(serial::Writer* w) const {
  w->WriteString(user_id);
  w->WriteU64(timestamp_ms);
  w->WriteBool(location.has_value());
  if (location.has_value()) {
    w->WriteU64(DoubleBits(location->latitude));
    w->WriteU64(DoubleBits(location->longitude));
  }
  w->WriteVarint(parents.size());
  for (const BlockHash& p : parents) w->WriteFixed(p);
}

Status BlockHeader::Decode(serial::Reader* r, BlockHeader* out) {
  VEGVISIR_RETURN_IF_ERROR(r->ReadString(&out->user_id));
  VEGVISIR_RETURN_IF_ERROR(r->ReadU64(&out->timestamp_ms));
  bool has_location;
  VEGVISIR_RETURN_IF_ERROR(r->ReadBool(&has_location));
  if (has_location) {
    std::uint64_t lat, lon;
    VEGVISIR_RETURN_IF_ERROR(r->ReadU64(&lat));
    VEGVISIR_RETURN_IF_ERROR(r->ReadU64(&lon));
    out->location = GeoLocation{DoubleFromBits(lat), DoubleFromBits(lon)};
  } else {
    out->location.reset();
  }
  std::uint64_t count;
  VEGVISIR_RETURN_IF_ERROR(r->ReadVarint(&count));
  VEGVISIR_RETURN_IF_ERROR(serial::CheckWireCount(
      count, serial::limits::kMaxBlockParents, r->remaining(),
      sizeof(BlockHash), "parent"));
  out->parents.clear();
  out->parents.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    BlockHash h;
    VEGVISIR_RETURN_IF_ERROR(r->ReadFixed(&h));
    out->parents.push_back(h);
  }
  // Canonical form: parents strictly ascending (also rejects
  // duplicate parents).
  for (std::size_t i = 1; i < out->parents.size(); ++i) {
    if (!(out->parents[i - 1] < out->parents[i])) {
      return InvalidArgumentError("parents not in canonical order");
    }
  }
  return Status::Ok();
}

Block Block::Create(BlockHeader header, std::vector<Transaction> txns,
                    const crypto::KeyPair& signer) {
  std::sort(header.parents.begin(), header.parents.end());
  header.parents.erase(
      std::unique(header.parents.begin(), header.parents.end()),
      header.parents.end());
  Block b;
  b.header_ = std::move(header);
  b.txns_ = std::move(txns);
  b.signature_ = signer.Sign(b.SigningPayload());
  b.RecomputeDerived();
  return b;
}

Bytes Block::SigningPayload() const {
  serial::Writer w;
  w.WriteString("vegvisir-block-v1");
  header_.Encode(&w);
  w.WriteVarint(txns_.size());
  for (const Transaction& tx : txns_) tx.Encode(&w);
  return w.Take();
}

Bytes Block::Serialize() const {
  serial::Writer w;
  w.Reserve(encoded_size_);  // 0 until the first RecomputeDerived
  header_.Encode(&w);
  w.WriteVarint(txns_.size());
  for (const Transaction& tx : txns_) tx.Encode(&w);
  w.WriteFixed(signature_.bytes);
  return w.Take();
}

StatusOr<Block> Block::Deserialize(ByteSpan data) {
  serial::Reader r(data);
  Block b;
  VEGVISIR_RETURN_IF_ERROR(BlockHeader::Decode(&r, &b.header_));
  std::uint64_t count;
  VEGVISIR_RETURN_IF_ERROR(r.ReadVarint(&count));
  VEGVISIR_RETURN_IF_ERROR(serial::CheckWireCount(
      count, serial::limits::kMaxBlockTransactions, r.remaining(), 1,
      "transaction"));
  b.txns_.clear();
  b.txns_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Transaction tx;
    VEGVISIR_RETURN_IF_ERROR(Transaction::Decode(&r, &tx));
    b.txns_.push_back(std::move(tx));
  }
  VEGVISIR_RETURN_IF_ERROR(r.ReadFixed(&b.signature_.bytes));
  VEGVISIR_RETURN_IF_ERROR(r.ExpectEnd());
  b.RecomputeDerived();
  return b;
}

void Block::RecomputeDerived() {
  const Bytes encoded = Serialize();
  encoded_size_ = encoded.size();
  const crypto::Sha256Digest digest = crypto::Sha256::Hash(encoded);
  std::memcpy(hash_.data(), digest.data(), hash_.size());
}

bool Block::VerifySignature(const crypto::PublicKey& key) const {
  return crypto::Verify(key, SigningPayload(), signature_);
}

bool Block::VerifySignature(const crypto::PreparedKey& key) const {
  return crypto::Verify(key, SigningPayload(), signature_);
}

}  // namespace vegvisir::chain
