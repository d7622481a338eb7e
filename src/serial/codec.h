// Canonical binary serialization.
//
// Everything that is hashed or signed (blocks, transactions,
// certificates) and every wire message is encoded with this codec. The
// encoding is canonical: a value has exactly one encoding, so equal
// structures hash equally and tamperproofness reduces to hash
// collision resistance.
//
// Format primitives:
//   - fixed-width little-endian integers (u8/u16/u32/u64)
//   - LEB128 varints for lengths and counts (minimal-length enforced
//     on decode, which is what makes the codec canonical)
//   - length-prefixed byte strings
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/bytes.h"
#include "util/status.h"

namespace vegvisir::serial {

// Appends primitive values to a growing byte buffer.
class Writer {
 public:
  Writer() = default;

  void WriteU8(std::uint8_t v);
  void WriteU16(std::uint16_t v);
  void WriteU32(std::uint32_t v);
  void WriteU64(std::uint64_t v);
  // Two's-complement via zigzag, then varint.
  void WriteI64(std::int64_t v);
  // LEB128, minimal length.
  void WriteVarint(std::uint64_t v);
  // Varint length prefix + raw bytes.
  void WriteBytes(ByteSpan data);
  void WriteString(std::string_view s);
  void WriteBool(bool v);
  template <std::size_t N>
  void WriteFixed(const std::array<std::uint8_t, N>& data) {
    Append(&buffer_, ByteSpan(data.data(), data.size()));
  }

  // Capacity hint for an encoding whose size is known in advance.
  void Reserve(std::size_t bytes) { buffer_.reserve(bytes); }

  const Bytes& buffer() const { return buffer_; }
  Bytes Take() { return std::move(buffer_); }

 private:
  Bytes buffer_;
};

// Consumes primitive values from a byte buffer with bounds checking.
// All Read* methods return a Status; on error the reader position is
// unspecified and the caller must abandon the decode.
class Reader {
 public:
  explicit Reader(ByteSpan data) : data_(data) {}

  Status ReadU8(std::uint8_t* out);
  Status ReadU16(std::uint16_t* out);
  Status ReadU32(std::uint32_t* out);
  Status ReadU64(std::uint64_t* out);
  Status ReadI64(std::int64_t* out);
  Status ReadVarint(std::uint64_t* out);
  Status ReadBytes(Bytes* out);
  Status ReadString(std::string* out);
  Status ReadBool(bool* out);
  template <std::size_t N>
  Status ReadFixed(std::array<std::uint8_t, N>* out) {
    if (remaining() < N) return TruncatedError();
    std::copy(data_.begin() + pos_, data_.begin() + pos_ + N, out->begin());
    pos_ += N;
    return Status::Ok();
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return remaining() == 0; }

  // Decoders call this after the last field to enforce canonicality:
  // trailing garbage means the encoding is not canonical.
  Status ExpectEnd() const;

 private:
  static Status TruncatedError();

  ByteSpan data_;
  std::size_t pos_ = 0;
};

}  // namespace vegvisir::serial
