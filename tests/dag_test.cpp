// chain::Dag's insertion order: the replica-local, parents-first list
// of every known hash that order-insensitive folds (range digest,
// IBLT) iterate instead of re-running the canonical Kahn sort. These
// tests pin what those folds rely on: every hash exactly once
// (evicted stubs included), parents before children, untouched by
// eviction, and valid across copies and moves.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "chain/block.h"
#include "chain/dag.h"
#include "chain/genesis.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "util/rng.h"

namespace vegvisir::chain {
namespace {

crypto::KeyPair TestKeys(std::uint64_t seed) {
  crypto::Drbg drbg(seed);
  return crypto::KeyPair::Generate(drbg);
}

struct Fixture {
  crypto::KeyPair owner = TestKeys(1);
  Block genesis =
      GenesisBuilder("dag-order").WithTimestamp(100).Build("owner", owner);

  Block MakeBlock(const std::vector<BlockHash>& parents, std::uint64_t ts) {
    BlockHeader h;
    h.user_id = "owner";
    h.timestamp_ms = ts;
    h.parents = parents;
    return Block::Create(std::move(h), {}, owner);
  }

  // A seeded random DAG of `n` blocks beyond genesis: each block takes
  // one to three distinct parents among the blocks inserted so far,
  // so the map rehashes several times and branches and merges mix.
  // Returns the hashes in insertion order.
  std::vector<BlockHash> Grow(Dag* dag, int n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<BlockHash> inserted = {genesis.hash()};
    for (int i = 0; i < n; ++i) {
      std::set<BlockHash> parents;
      const std::uint64_t want = 1 + rng.NextBelow(3);
      for (std::uint64_t k = 0; k < want; ++k) {
        parents.insert(inserted[rng.NextBelow(inserted.size())]);
      }
      const Block b = MakeBlock(
          std::vector<BlockHash>(parents.begin(), parents.end()), 200 + i);
      EXPECT_TRUE(dag->Insert(b).ok());
      inserted.push_back(b.hash());
    }
    return inserted;
  }
};

std::vector<BlockHash> Values(const Dag& dag) {
  std::vector<BlockHash> out;
  for (const BlockHash* h : dag.InsertionOrder()) out.push_back(*h);
  return out;
}

// Every hash once, and each block after all of its parents.
void ExpectParentsFirstPermutation(const Dag& dag) {
  std::map<BlockHash, std::size_t> index;
  for (const BlockHash* h : dag.InsertionOrder()) {
    ASSERT_TRUE(index.emplace(*h, index.size()).second) << "duplicate hash";
  }
  ASSERT_EQ(index.size(), dag.Size());
  const std::vector<BlockHash> topo = dag.TopologicalOrder();
  ASSERT_EQ(std::set<BlockHash>(topo.begin(), topo.end()).size(),
            index.size());
  for (const auto& [h, i] : index) {
    ASSERT_TRUE(dag.Contains(h));
    for (const BlockHash& p : dag.ParentsOf(h)) {
      ASSERT_LT(index.at(p), i) << "child listed before its parent";
    }
  }
}

TEST(DagInsertionOrderTest, HoldsEveryHashOnceParentsFirst) {
  Fixture f;
  Dag dag(f.genesis);
  EXPECT_EQ(Values(dag), std::vector<BlockHash>{f.genesis.hash()});
  const std::vector<BlockHash> inserted = f.Grow(&dag, 200, 7);
  EXPECT_EQ(Values(dag), inserted);
  ExpectParentsFirstPermutation(dag);
}

TEST(DagInsertionOrderTest, IncludesEvictedStubsAndSkipsRejects) {
  Fixture f;
  Dag dag(f.genesis);
  const Block a = f.MakeBlock({f.genesis.hash()}, 200);
  const Block b = f.MakeBlock({a.hash()}, 300);
  // A persisted replica loads old bodies as stubs.
  ASSERT_TRUE(dag.InsertEvictedStub(a.hash(), {f.genesis.hash()}, "owner",
                                    200, a.EncodedSize())
                  .ok());
  ASSERT_TRUE(dag.Insert(b).ok());
  // Refused inserts leave no trace.
  EXPECT_FALSE(dag.Insert(b).ok());
  EXPECT_FALSE(dag.InsertEvictedStub(a.hash(), {f.genesis.hash()}, "owner",
                                     200, a.EncodedSize())
                   .ok());
  BlockHash phantom{};
  phantom.fill(0x42);
  EXPECT_FALSE(dag.Insert(f.MakeBlock({phantom}, 400)).ok());

  EXPECT_EQ(Values(dag),
            (std::vector<BlockHash>{f.genesis.hash(), a.hash(), b.hash()}));
  EXPECT_EQ(dag.PresenceOf(a.hash()), Presence::kEvicted);
  ExpectParentsFirstPermutation(dag);
}

TEST(DagInsertionOrderTest, UnchangedByEvictAndRestore) {
  Fixture f;
  Dag dag(f.genesis);
  const Block a = f.MakeBlock({f.genesis.hash()}, 200);
  const Block b = f.MakeBlock({a.hash()}, 300);
  const Block c = f.MakeBlock({b.hash()}, 400);
  for (const Block* blk : {&a, &b, &c}) ASSERT_TRUE(dag.Insert(*blk).ok());
  const std::vector<const BlockHash*> before = dag.InsertionOrder();

  ASSERT_TRUE(dag.Evict(a.hash()).ok());
  ASSERT_TRUE(dag.Evict(b.hash()).ok());
  EXPECT_EQ(dag.InsertionOrder(), before);
  ASSERT_TRUE(dag.Restore(a).ok());
  EXPECT_EQ(dag.InsertionOrder(), before);
  EXPECT_EQ(Values(dag), (std::vector<BlockHash>{f.genesis.hash(), a.hash(),
                                                 b.hash(), c.hash()}));
}

TEST(DagInsertionOrderTest, CopyRebindsToItsOwnKeys) {
  Fixture f;
  auto source = std::make_unique<Dag>(f.genesis);
  const std::vector<BlockHash> inserted = f.Grow(source.get(), 150, 11);
  const std::set<const BlockHash*> source_keys(
      source->InsertionOrder().begin(), source->InsertionOrder().end());

  Dag copy(*source);
  Dag assigned(
      GenesisBuilder("other").WithTimestamp(1).Build("owner", f.owner));
  assigned = *source;
  for (const Dag* d : {&copy, &assigned}) {
    for (const BlockHash* h : d->InsertionOrder()) {
      EXPECT_EQ(source_keys.count(h), 0u) << "copy points into its source";
    }
  }
  source.reset();

  for (const Dag* d : {&copy, &assigned}) {
    EXPECT_EQ(Values(*d), inserted);
    ExpectParentsFirstPermutation(*d);
  }
  // The copy keeps growing on its own.
  const Block next = f.MakeBlock({inserted.back()}, 10'000);
  ASSERT_TRUE(copy.Insert(next).ok());
  EXPECT_EQ(*copy.InsertionOrder().back(), next.hash());
  EXPECT_EQ(assigned.InsertionOrder().size(), inserted.size());
}

TEST(DagInsertionOrderTest, MoveKeepsTheMapsNodes) {
  Fixture f;
  Dag source(f.genesis);
  const std::vector<BlockHash> inserted = f.Grow(&source, 150, 13);
  const std::vector<const BlockHash*> pointers = source.InsertionOrder();

  Dag moved(std::move(source));
  EXPECT_EQ(moved.InsertionOrder(), pointers);
  Dag assigned(
      GenesisBuilder("other").WithTimestamp(1).Build("owner", f.owner));
  assigned = std::move(moved);
  EXPECT_EQ(assigned.InsertionOrder(), pointers);
  EXPECT_EQ(Values(assigned), inserted);
  ExpectParentsFirstPermutation(assigned);
}

}  // namespace
}  // namespace vegvisir::chain
