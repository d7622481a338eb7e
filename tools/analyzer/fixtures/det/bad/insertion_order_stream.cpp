// det-expect: source=insertion-order sink=serialize; source=insertion-order sink=unordered-return
//
// The DAG's insertion order is parents-first but replica-specific:
// two replicas holding the same DAG learned its blocks in different
// orders. Streaming it into a canonical byte stream, or handing it to
// a caller as a sequence, leaks that order; such code must walk
// TopologicalOrder() instead.
#include <array>
#include <cstdint>
#include <vector>

using BlockHash = std::array<std::uint8_t, 32>;

struct Writer {
  void WriteFixed(const BlockHash& h);
};

struct Dag {
  const std::vector<const BlockHash*>& InsertionOrder() const;
};

void WriteAll(const Dag& dag, Writer* w) {
  for (const BlockHash* h : dag.InsertionOrder()) {
    w->WriteFixed(*h);
  }
}

std::vector<BlockHash> Hashes(const Dag& dag) {
  const auto& order = dag.InsertionOrder();
  std::vector<BlockHash> out;
  for (const BlockHash* h : order) out.push_back(*h);
  return out;
}
