#include "setdiff/iblt.h"

#include <algorithm>
#include <cstring>
#include <deque>

#include "serial/limits.h"

namespace vegvisir::setdiff {
namespace {

// splitmix64: the standard 64-bit finalizer-style mixer. Keys are
// SHA-256 output (uniform), so one mixing round per lane suffices to
// decorrelate positions from the seed and from each other.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t Lane(const chain::BlockHash& key, std::size_t lane) {
  std::uint64_t v;
  std::memcpy(&v, key.data() + lane * 8, sizeof(v));
  return v;
}

// XOR-folds `key` into `sum` as four 64-bit words (XOR is bytewise, so
// the bytes match a byte-by-byte fold). `key` is taken by value: a
// reference might alias `sum`, which would force the compiler into one
// load and store per byte.
void XorInto(chain::BlockHash* sum, const chain::BlockHash key) {
  std::uint64_t acc[4];
  std::uint64_t add[4];
  static_assert(sizeof(acc) == sizeof(chain::BlockHash));
  std::memcpy(acc, sum->data(), sizeof(acc));
  std::memcpy(add, key.data(), sizeof(add));
  for (std::size_t i = 0; i < 4; ++i) acc[i] ^= add[i];
  std::memcpy(sum->data(), acc, sizeof(acc));
}

}  // namespace

bool IbltCell::IsZero() const {
  if (count != 0 || check_sum != 0) return false;
  return std::all_of(key_sum.begin(), key_sum.end(),
                     [](std::uint8_t b) { return b == 0; });
}

Iblt::Iblt(std::size_t cells, std::uint64_t seed)
    : seed_(seed), cells_(std::max<std::size_t>(cells, 1)) {}

void Iblt::Positions(const chain::BlockHash& key,
                     std::size_t out[kIbltHashCount]) const {
  // Disjoint 8-byte lanes 0..2 of the 32-byte key, each remixed with
  // the seed; lane 3 is reserved for the checksum.
  //
  // Partitioned layout: position i is drawn from subtable i (the
  // table split into k contiguous, nearly-equal segments). A single
  // key can therefore never collide with itself — without this, all
  // three positions coincide with probability 1/cells^2 per key,
  // leaving a count-3 cell that no table size can peel, and 2-of-3
  // self-collisions measurably raise the failure rate of the small
  // tables CellsForDelta produces.
  const std::size_t total = cells_.size();
  if (total < kIbltHashCount) {
    // Degenerate decoder-supplied geometry: no partition possible.
    // Peel will simply fail cleanly on anything nontrivial.
    for (std::size_t i = 0; i < kIbltHashCount; ++i) {
      out[i] = static_cast<std::size_t>(Mix64(Lane(key, i) ^ (seed_ + i)) %
                                        total);
    }
    return;
  }
  const std::size_t base = total / kIbltHashCount;
  for (std::size_t i = 0; i < kIbltHashCount; ++i) {
    const std::size_t begin = i * base;
    const std::size_t size =
        (i + 1 == kIbltHashCount) ? total - begin : base;
    out[i] = begin + static_cast<std::size_t>(
                         Mix64(Lane(key, i) ^ (seed_ + i)) % size);
  }
}

std::uint64_t Iblt::CheckOf(const chain::BlockHash& key) const {
  return Mix64(Lane(key, 3) ^ (seed_ * 0x2545f4914f6cdd1dULL + 0xb5ULL));
}

void Iblt::Apply(const chain::BlockHash& key, std::int64_t delta) {
  std::size_t pos[kIbltHashCount];
  Positions(key, pos);
  const std::uint64_t check = CheckOf(key);
  for (std::size_t i = 0; i < kIbltHashCount; ++i) {
    IbltCell& cell = cells_[pos[i]];
    cell.count += delta;
    XorInto(&cell.key_sum, key);
    cell.check_sum ^= check;
  }
}

void Iblt::Insert(const chain::BlockHash& key) { Apply(key, 1); }
void Iblt::Erase(const chain::BlockHash& key) { Apply(key, -1); }

Status Iblt::Subtract(const Iblt& other) {
  if (other.cells_.size() != cells_.size() || other.seed_ != seed_) {
    return InvalidArgumentError("iblt parameter mismatch");
  }
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    IbltCell& a = cells_[i];
    const IbltCell& b = other.cells_[i];
    a.count -= b.count;
    XorInto(&a.key_sum, b.key_sum);
    a.check_sum ^= b.check_sum;
  }
  return Status::Ok();
}

bool Iblt::Peel(std::vector<chain::BlockHash>* plus,
                std::vector<chain::BlockHash>* minus) const {
  plus->clear();
  minus->clear();
  Iblt work = *this;

  // A cell is pure when exactly one difference key remains resident:
  // |count| == 1 and the checksum fold matches the lone key's own
  // checksum (the 64-bit check makes a coincidental match
  // negligible). Peeling that key may expose new pure cells.
  std::deque<std::size_t> queue;
  for (std::size_t i = 0; i < work.cells_.size(); ++i) queue.push_back(i);
  while (!queue.empty()) {
    const std::size_t i = queue.front();
    queue.pop_front();
    const IbltCell& cell = work.cells_[i];
    if (cell.count != 1 && cell.count != -1) continue;
    const chain::BlockHash key = cell.key_sum;
    if (work.CheckOf(key) != cell.check_sum) continue;
    const std::int64_t sign = cell.count;
    (sign > 0 ? plus : minus)->push_back(key);
    work.Apply(key, -sign);
    std::size_t pos[kIbltHashCount];
    work.Positions(key, pos);
    for (std::size_t p = 0; p < kIbltHashCount; ++p) queue.push_back(pos[p]);
  }

  const bool clean = std::all_of(work.cells_.begin(), work.cells_.end(),
                                 [](const IbltCell& c) { return c.IsZero(); });
  if (!clean) {
    plus->clear();
    minus->clear();
    return false;
  }
  std::sort(plus->begin(), plus->end());
  std::sort(minus->begin(), minus->end());
  return true;
}

void Iblt::Encode(serial::Writer* w) const {
  w->WriteVarint(cells_.size());
  for (const IbltCell& cell : cells_) {
    w->WriteI64(cell.count);
    w->WriteFixed(cell.key_sum);
    w->WriteU64(cell.check_sum);
  }
}

StatusOr<Iblt> Iblt::Decode(serial::Reader* r, std::uint64_t seed) {
  std::uint64_t count;
  VEGVISIR_RETURN_IF_ERROR(r->ReadVarint(&count));
  VEGVISIR_RETURN_IF_ERROR(serial::CheckWireCount(
      count, serial::limits::kMaxIbltCells, r->remaining(),
      kIbltCellWireBytes, "cell"));
  if (count == 0) return InvalidArgumentError("cell count must be >= 1");
  Iblt out(static_cast<std::size_t>(count), seed);
  for (std::uint64_t i = 0; i < count; ++i) {
    IbltCell& cell = out.cells_[static_cast<std::size_t>(i)];
    VEGVISIR_RETURN_IF_ERROR(r->ReadI64(&cell.count));
    VEGVISIR_RETURN_IF_ERROR(r->ReadFixed(&cell.key_sum));
    VEGVISIR_RETURN_IF_ERROR(r->ReadU64(&cell.check_sum));
  }
  return out;
}

std::size_t CellsForDelta(std::uint64_t estimated_delta, std::size_t cap) {
  // 2x the estimate: the asymptotic k=3 peel threshold is ~1.22x, but
  // the small tables this path actually builds (tens of cells) sit in
  // the finite-size regime where 1.5x still fails ~10% of the time,
  // and every failure costs a full escalation round trip — expensive
  // on the lossy links this protocol targets. The +8 floor absorbs
  // estimator error on tiny deltas.
  const std::uint64_t sized = estimated_delta * 2 + 8;
  const std::uint64_t floor =
      std::max<std::uint64_t>(sized, kIbltFloorCells);
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(floor, std::max<std::size_t>(cap, 1)));
}

std::size_t EscalatedCells(std::size_t previous, std::size_t cap) {
  const std::uint64_t grown = static_cast<std::uint64_t>(previous) * 4;
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(grown, std::max<std::size_t>(cap, 1)));
}

std::uint64_t SeedForCells(std::size_t cells) {
  return Mix64(0x7665677669736972ULL ^ cells);  // "vegvisir"
}

}  // namespace vegvisir::setdiff
