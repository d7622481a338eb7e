// det-expect: clean
//
// Folding the DAG's insertion order into order-insensitive summaries
// (a range digest, an IBLT, a Bloom filter) is fine: each Insert is a
// commutative XOR/count/bit-set update, so the summary's bytes do not
// depend on which replica-specific order fed it.
#include <array>
#include <cstdint>
#include <vector>

using BlockHash = std::array<std::uint8_t, 32>;

struct Writer {
  void WriteU64(std::uint64_t v);
  void WriteFixed(const BlockHash& h);
};

struct Dag {
  const std::vector<const BlockHash*>& InsertionOrder() const;
};

struct RangeDigest {
  void Insert(const BlockHash& key);
  void Encode(Writer* w) const;
};

struct Iblt {
  void Insert(const BlockHash& key);
  void Encode(Writer* w) const;
};

struct BloomFilter {
  void Insert(const std::uint8_t* data, std::uint64_t size);
  void Encode(Writer* w) const;
};

void Summarize(const Dag& dag, Writer* w) {
  RangeDigest digest;
  Iblt sketch;
  BloomFilter filter;
  for (const BlockHash* h : dag.InsertionOrder()) {
    digest.Insert(*h);
    sketch.Insert(*h);
    filter.Insert(h->data(), h->size());
  }
  digest.Encode(w);
  sketch.Encode(w);
  filter.Encode(w);
}
