#include "chain/dag.h"

#include <algorithm>
#include <cstring>
#include <queue>

#include "crypto/sha256.h"

namespace vegvisir::chain {
namespace {

const std::vector<BlockHash> kNoHashes;
const std::string kNoCreator;

}  // namespace

Dag::Dag(Block genesis)
    : floor_sketch_(setdiff::kIbltFloorCells,
                    setdiff::SeedForCells(setdiff::kIbltFloorCells)) {
  genesis_hash_ = genesis.hash();
  Entry e;
  e.parents = genesis.header().parents;  // empty for a true genesis
  e.creator = genesis.header().user_id;
  e.timestamp = genesis.header().timestamp_ms;
  e.encoded_size = genesis.EncodedSize();
  e.block = std::move(genesis);
  stored_count_ = 1;
  stored_bytes_ = e.encoded_size;
  frontier_.insert(genesis_hash_);
  const auto it = entries_.emplace(genesis_hash_, std::move(e)).first;
  RecordInsertion(&it->first);
}

Dag::Dag(const Dag& other)
    : entries_(other.entries_),
      range_digest_(other.range_digest_),
      floor_sketch_(other.floor_sketch_),
      frontier_(other.frontier_),
      genesis_hash_(other.genesis_hash_),
      stored_count_(other.stored_count_),
      stored_bytes_(other.stored_bytes_) {
  insertion_order_.reserve(other.insertion_order_.size());
  for (const BlockHash* h : other.insertion_order_) {
    insertion_order_.push_back(&entries_.find(*h)->first);
  }
}

Dag& Dag::operator=(const Dag& other) {
  if (this != &other) *this = Dag(other);
  return *this;
}

void Dag::Link(const BlockHash& h, Entry e) {
  for (const BlockHash& p : e.parents) {
    entries_[p].children.push_back(h);
    frontier_.erase(p);
  }
  frontier_.insert(h);
  const auto it = entries_.emplace(h, std::move(e)).first;
  RecordInsertion(&it->first);
}

void Dag::RecordInsertion(const BlockHash* h) {
  insertion_order_.push_back(h);
  range_digest_.Insert(*h);
  floor_sketch_.Insert(*h);
}

const Dag::Entry* Dag::FindEntry(const BlockHash& h) const {
  const auto it = entries_.find(h);
  return it == entries_.end() ? nullptr : &it->second;
}

Presence Dag::PresenceOf(const BlockHash& h) const {
  const Entry* e = FindEntry(h);
  if (e == nullptr) return Presence::kAbsent;
  return e->block.has_value() ? Presence::kStored : Presence::kEvicted;
}

const Block* Dag::Find(const BlockHash& h) const {
  const Entry* e = FindEntry(h);
  if (e == nullptr || !e->block.has_value()) return nullptr;
  return &*e->block;
}

Status Dag::Insert(Block block) {
  const BlockHash h = block.hash();
  if (entries_.count(h) > 0) {
    return AlreadyExistsError("block " + HashShort(h));
  }
  if (block.header().parents.empty()) {
    return FailedPreconditionError(
        "parentless block is not this chain's genesis");
  }
  for (const BlockHash& p : block.header().parents) {
    if (entries_.count(p) == 0) {
      return NotFoundError("missing parent " + HashShort(p));
    }
  }

  Entry e;
  e.parents = block.header().parents;
  e.creator = block.header().user_id;
  e.timestamp = block.header().timestamp_ms;
  e.encoded_size = block.EncodedSize();
  e.block = std::move(block);
  stored_count_ += 1;
  stored_bytes_ += e.encoded_size;
  Link(h, std::move(e));
  return Status::Ok();
}

std::vector<BlockHash> Dag::Frontier() const {
  return std::vector<BlockHash>(frontier_.begin(), frontier_.end());
}

std::vector<BlockHash> Dag::FrontierLevel(int n) const {
  std::set<BlockHash> level(frontier_.begin(), frontier_.end());
  std::set<BlockHash> boundary = level;  // blocks added at the last level
  for (int i = 1; i < n; ++i) {
    std::set<BlockHash> next_boundary;
    for (const BlockHash& h : boundary) {
      const Entry* e = FindEntry(h);
      for (const BlockHash& p : e->parents) {
        if (level.insert(p).second) next_boundary.insert(p);
      }
    }
    if (next_boundary.empty()) break;  // reached genesis everywhere
    boundary = std::move(next_boundary);
  }
  return std::vector<BlockHash>(level.begin(), level.end());
}

BlockHash Dag::FrontierDigest() const {
  crypto::Sha256 hasher;
  for (const BlockHash& h : frontier_) {  // std::set: already sorted
    hasher.Update(ByteSpan(h.data(), h.size()));
  }
  const crypto::Sha256Digest digest = hasher.Finish();
  BlockHash out;
  std::memcpy(out.data(), digest.data(), out.size());
  return out;
}

const std::vector<BlockHash>& Dag::ParentsOf(const BlockHash& h) const {
  const Entry* e = FindEntry(h);
  return e == nullptr ? kNoHashes : e->parents;
}

const std::vector<BlockHash>& Dag::ChildrenOf(const BlockHash& h) const {
  const Entry* e = FindEntry(h);
  return e == nullptr ? kNoHashes : e->children;
}

const std::string& Dag::CreatorOf(const BlockHash& h) const {
  const Entry* e = FindEntry(h);
  return e == nullptr ? kNoCreator : e->creator;
}

std::uint64_t Dag::TimestampOf(const BlockHash& h) const {
  const Entry* e = FindEntry(h);
  return e == nullptr ? 0 : e->timestamp;
}

std::vector<BlockHash> Dag::TopologicalOrder() const {
  // Kahn's algorithm; the ready set is a min-heap on block hash so the
  // order is deterministic across replicas.
  std::unordered_map<BlockHash, std::size_t, BlockHashHasher> pending_parents;
  pending_parents.reserve(entries_.size());
  for (const auto& [h, e] : entries_) {
    pending_parents[h] = e.parents.size();
  }
  std::priority_queue<BlockHash, std::vector<BlockHash>,
                      std::greater<BlockHash>>
      ready;
  ready.push(genesis_hash_);

  std::vector<BlockHash> order;
  order.reserve(entries_.size());
  while (!ready.empty()) {
    const BlockHash h = ready.top();
    ready.pop();
    order.push_back(h);
    for (const BlockHash& c : FindEntry(h)->children) {
      if (--pending_parents[c] == 0) ready.push(c);
    }
  }
  return order;
}

bool Dag::IsAncestor(const BlockHash& ancestor, const BlockHash& descendant,
                     bool include_self) const {
  if (ancestor == descendant) return include_self;
  if (!Contains(ancestor) || !Contains(descendant)) return false;
  // Walk upward from the descendant.
  std::set<BlockHash> visited;
  std::vector<BlockHash> stack = {descendant};
  while (!stack.empty()) {
    const BlockHash h = stack.back();
    stack.pop_back();
    for (const BlockHash& p : FindEntry(h)->parents) {
      if (p == ancestor) return true;
      if (visited.insert(p).second) stack.push_back(p);
    }
  }
  return false;
}

std::set<BlockHash> Dag::Ancestors(const BlockHash& h) const {
  std::set<BlockHash> result;
  if (!Contains(h)) return result;
  std::vector<BlockHash> stack = {h};
  while (!stack.empty()) {
    const BlockHash cur = stack.back();
    stack.pop_back();
    for (const BlockHash& p : FindEntry(cur)->parents) {
      if (result.insert(p).second) stack.push_back(p);
    }
  }
  return result;
}

std::set<BlockHash> Dag::Descendants(const BlockHash& h) const {
  std::set<BlockHash> result;
  if (!Contains(h)) return result;
  std::vector<BlockHash> stack = {h};
  while (!stack.empty()) {
    const BlockHash cur = stack.back();
    stack.pop_back();
    for (const BlockHash& c : FindEntry(cur)->children) {
      if (result.insert(c).second) stack.push_back(c);
    }
  }
  return result;
}

std::uint64_t Dag::MaxParentTimestamp(
    const std::vector<BlockHash>& parents) const {
  std::uint64_t max_ts = 0;
  for (const BlockHash& p : parents) {
    max_ts = std::max(max_ts, TimestampOf(p));
  }
  return max_ts;
}

std::set<std::string> Dag::WitnessesOf(const BlockHash& h) const {
  std::set<std::string> witnesses;
  const Entry* e = FindEntry(h);
  if (e == nullptr) return witnesses;
  for (const BlockHash& d : Descendants(h)) {
    const std::string& creator = FindEntry(d)->creator;
    if (creator != e->creator) witnesses.insert(creator);
  }
  return witnesses;
}

Status Dag::Evict(const BlockHash& h) {
  const auto it = entries_.find(h);
  if (it == entries_.end()) return NotFoundError("block " + HashShort(h));
  Entry& e = it->second;
  if (!e.block.has_value()) {
    return FailedPreconditionError("block already evicted");
  }
  if (h == genesis_hash_) {
    return FailedPreconditionError("genesis cannot be evicted");
  }
  if (e.children.empty()) {
    return FailedPreconditionError("frontier block cannot be evicted");
  }
  e.block.reset();
  stored_count_ -= 1;
  stored_bytes_ -= e.encoded_size;
  return Status::Ok();
}

Status Dag::InsertEvictedStub(const BlockHash& hash,
                              std::vector<BlockHash> parents,
                              std::string creator,
                              std::uint64_t timestamp_ms,
                              std::size_t encoded_size) {
  if (entries_.count(hash) > 0) {
    return AlreadyExistsError("block " + HashShort(hash));
  }
  if (parents.empty()) {
    return FailedPreconditionError("stub cannot be a second genesis");
  }
  for (const BlockHash& p : parents) {
    if (entries_.count(p) == 0) {
      return NotFoundError("missing parent " + HashShort(p));
    }
  }
  Entry e;
  e.parents = std::move(parents);
  e.creator = std::move(creator);
  e.timestamp = timestamp_ms;
  e.encoded_size = encoded_size;
  Link(hash, std::move(e));
  return Status::Ok();
}

Status Dag::Restore(Block block) {
  const auto it = entries_.find(block.hash());
  if (it == entries_.end()) {
    return NotFoundError("unknown block " + HashShort(block.hash()));
  }
  Entry& e = it->second;
  if (e.block.has_value()) {
    return AlreadyExistsError("block body already present");
  }
  stored_count_ += 1;
  stored_bytes_ += block.EncodedSize();
  e.encoded_size = block.EncodedSize();
  e.block = std::move(block);
  return Status::Ok();
}

std::vector<BlockHash> Dag::StoredOldestFirst() const {
  std::vector<BlockHash> stored;
  stored.reserve(stored_count_);
  for (const auto& [h, e] : entries_) {
    if (e.block.has_value()) stored.push_back(h);
  }
  std::sort(stored.begin(), stored.end(),
            [this](const BlockHash& a, const BlockHash& b) {
              const std::uint64_t ta = TimestampOf(a), tb = TimestampOf(b);
              return ta != tb ? ta < tb : a < b;
            });
  return stored;
}

void Dag::ForEachStored(const std::function<void(const Block&)>& fn) const {
  // Topological order, not entries_ bucket order: the callback is a
  // caller-visible emission channel, and callers digest or print what
  // they are handed (det_taint's callback-emit sink).
  for (const BlockHash& h : TopologicalOrder()) {
    const auto it = entries_.find(h);
    if (it != entries_.end() && it->second.block.has_value()) {
      fn(*it->second.block);
    }
  }
}

}  // namespace vegvisir::chain
