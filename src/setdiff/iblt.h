// Invertible Bloom Lookup Table over block hashes.
//
// The compact set-difference stage of reconciliation v2 (DESIGN.md
// §16): each peer folds its entire block-hash set into a table of
// `cells` counters, cell-wise subtraction of two tables yields a
// sketch of the *symmetric difference only*, and peel-decoding that
// sketch recovers the differing hashes exactly — so the wire cost of
// a sync scales with the delta, not with frontier depth (the §VI
// efficiency worry Algorithm 1's level escalation cannot avoid).
//
// Decode is all-or-nothing and loudly so: Peel() returns false when
// the difference exceeds what the cell count can carry (or a hash
// arrangement is unlucky), and the session reacts by escalating the
// cell count once and then falling back to level escalation — the
// sketch is an optimization, never a correctness dependency.
//
// Keys are SHA-256 block hashes, i.e. already uniform, so the k probe
// positions and the per-key checksum are derived from disjoint 8-byte
// lanes of the key mixed with a session-chosen seed (no second hash
// pass per insert). Both peers MUST build with identical (cells,
// seed) for subtraction to be meaningful; Subtract enforces it.
#pragma once

#include <cstdint>
#include <vector>

#include "chain/types.h"
#include "serial/codec.h"
#include "util/status.h"

namespace vegvisir::setdiff {

// Probe positions per key (k). 3 keeps the decodable-delta threshold
// near cells/1.3 while costing three cell updates per insert.
inline constexpr std::size_t kIbltHashCount = 3;

// The smallest table CellsForDelta returns unless the cap is lower:
// the size for every estimated delta of 0-4 blocks, which is nearly
// all session traffic. chain::Dag keeps one table of this size
// (seeded with SeedForCells(kIbltFloorCells)) current on insert, and
// sessions copy it instead of folding their whole hash set.
inline constexpr std::size_t kIbltFloorCells = 16;

// Wire floor of one encoded cell: 1-byte minimum zigzag count +
// 32-byte key XOR + 8-byte checksum XOR. CheckWireCount divides the
// remaining input by this, so a cell-count bomb must pay for padding.
inline constexpr std::size_t kIbltCellWireBytes = 1 + 32 + 8;

struct IbltCell {
  std::int64_t count = 0;
  chain::BlockHash key_sum{};   // XOR fold of resident keys
  std::uint64_t check_sum = 0;  // XOR fold of per-key checksums

  bool IsZero() const;
  bool operator==(const IbltCell& other) const {
    return count == other.count && key_sum == other.key_sum &&
           check_sum == other.check_sum;
  }
};

class Iblt {
 public:
  // `cells` is clamped to [1, kMaxIbltCells] by the callers (the
  // decoder enforces the cap; sessions pick sizes via CellsForDelta).
  Iblt(std::size_t cells, std::uint64_t seed);

  void Insert(const chain::BlockHash& key);
  void Erase(const chain::BlockHash& key);

  // Cell-wise subtraction (this - other). Fails unless both tables
  // were built with the same cell count and seed.
  Status Subtract(const Iblt& other);

  // Peel-decodes a *difference* table (the result of Subtract).
  // Keys this side held and the peer did not land in `plus`; keys the
  // peer held land in `minus`; both come back sorted so downstream
  // behaviour is replica-deterministic. Returns false — leaving the
  // outputs empty — when the table does not fully peel (delta larger
  // than the cells can carry); the caller escalates or falls back.
  bool Peel(std::vector<chain::BlockHash>* plus,
            std::vector<chain::BlockHash>* minus) const;

  std::size_t cell_count() const { return cells_.size(); }
  std::uint64_t seed() const { return seed_; }
  const std::vector<IbltCell>& cells() const { return cells_; }

  // Wire form: varint cell count, then per cell a zigzag count, the
  // 32-byte key XOR and a fixed u64 checksum XOR. The seed travels in
  // the enclosing DiffSketch message, not here.
  void Encode(serial::Writer* w) const;
  static StatusOr<Iblt> Decode(serial::Reader* r, std::uint64_t seed);

 private:
  void Apply(const chain::BlockHash& key, std::int64_t delta);
  void Positions(const chain::BlockHash& key,
                 std::size_t out[kIbltHashCount]) const;
  std::uint64_t CheckOf(const chain::BlockHash& key) const;

  std::uint64_t seed_;
  std::vector<IbltCell> cells_;
};

// Sizing policy shared by both session sides: the cell count that
// gives a ~1.5x margin over an estimated symmetric difference, with a
// floor that absorbs estimator error on tiny deltas. Clamped to
// `cap` (a responder's configured ceiling, itself <= kMaxIbltCells).
std::size_t CellsForDelta(std::uint64_t estimated_delta, std::size_t cap);

// The escalated retry size after a decode failure (one step, x4).
std::size_t EscalatedCells(std::size_t previous, std::size_t cap);

// The deterministic hash-family seed for an attempt with this cell
// count: escalation changes the cell count, which re-randomizes the
// probe positions, so a pathological arrangement cannot repeat.
std::uint64_t SeedForCells(std::size_t cells);

}  // namespace vegvisir::setdiff
