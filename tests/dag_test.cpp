// chain::Dag's insertion order: the replica-local, parents-first list
// of every known hash that order-insensitive folds (range digest,
// IBLT) iterate instead of re-running the canonical Kahn sort. These
// tests pin what those folds rely on: every hash exactly once
// (evicted stubs included), parents before children, untouched by
// eviction, and valid across copies and moves. The setdiff summaries
// the Dag keeps on insert (range digest, floor-size IBLT) must equal
// a fresh fold of that order through every way a Dag grows or moves.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "chain/block.h"
#include "chain/dag.h"
#include "chain/genesis.h"
#include "chain/store.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "setdiff/digest.h"
#include "setdiff/iblt.h"
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

// ------------------------------------------- maintained setdiff summaries

// The Dag's range digest and floor table against a fresh fold of its
// insertion order.
void ExpectSummariesMatchFreshFold(const Dag& dag) {
  setdiff::RangeDigest digest;
  setdiff::Iblt sketch(setdiff::kIbltFloorCells,
                       setdiff::SeedForCells(setdiff::kIbltFloorCells));
  for (const BlockHash* h : dag.InsertionOrder()) {
    digest.Insert(*h);
    sketch.Insert(*h);
  }
  EXPECT_TRUE(dag.range_digest() == digest);
  EXPECT_EQ(dag.floor_sketch().seed(), sketch.seed());
  EXPECT_EQ(dag.floor_sketch().cells(), sketch.cells());
}

void ExpectSameSummaries(const Dag& a, const Dag& b) {
  EXPECT_TRUE(a.range_digest() == b.range_digest());
  EXPECT_EQ(a.floor_sketch().cells(), b.floor_sketch().cells());
}

TEST(DagSetdiffSummaryTest, GenesisOnlyDagHoldsTheGenesisHash) {
  Fixture f;
  Dag dag(f.genesis);
  ExpectSummariesMatchFreshFold(dag);
  EXPECT_EQ(dag.floor_sketch().cell_count(), setdiff::kIbltFloorCells);
  std::uint64_t count = 0;
  for (const setdiff::RangeCell& cell : dag.range_digest().cells()) {
    count += cell.count;
  }
  EXPECT_EQ(count, 1u);
}

// A seeded random history through every way a Dag changes: inserts,
// evicted stubs, refused inserts, eviction and restore, copy
// construction and assignment, moves, and a checkpoint round trip
// (SerializeDag re-inserts in topological order, a different
// insertion order holding the same set).
TEST(DagSetdiffSummaryTest, MatchFreshFoldThroughRandomHistory) {
  Fixture f;
  Rng rng(41);
  Dag dag(f.genesis);
  const Block other_genesis =
      GenesisBuilder("other").WithTimestamp(1).Build("owner", f.owner);
  std::vector<BlockHash> known = {f.genesis.hash()};
  std::map<BlockHash, Block> bodies;  // every block made, for Restore
  std::uint64_t ts = 200;
  int evicted = 0;
  int restored = 0;

  const auto random_parents = [&] {
    std::set<BlockHash> parents;
    const std::uint64_t want = 1 + rng.NextBelow(3);
    for (std::uint64_t k = 0; k < want; ++k) {
      parents.insert(known[rng.NextBelow(known.size())]);
    }
    return std::vector<BlockHash>(parents.begin(), parents.end());
  };

  ExpectSummariesMatchFreshFold(dag);
  for (int step = 0; step < 300; ++step) {
    const BlockHash pick = known[rng.NextBelow(known.size())];
    switch (rng.NextBelow(10)) {
      case 0:
      case 1:
      case 2: {
        const Block b = f.MakeBlock(random_parents(), ++ts);
        ASSERT_TRUE(dag.Insert(b).ok());
        known.push_back(b.hash());
        bodies.emplace(b.hash(), b);
        break;
      }
      case 3: {
        const Block b = f.MakeBlock(random_parents(), ++ts);
        ASSERT_TRUE(dag.InsertEvictedStub(b.hash(), b.header().parents,
                                          "owner", b.header().timestamp_ms,
                                          b.EncodedSize())
                        .ok());
        known.push_back(b.hash());
        bodies.emplace(b.hash(), b);
        break;
      }
      case 4:
        // Refused: a duplicate (or, for genesis, a second genesis).
        if (pick == f.genesis.hash()) {
          EXPECT_FALSE(dag.Insert(other_genesis).ok());
        } else {
          EXPECT_FALSE(dag.Insert(bodies.at(pick)).ok());
        }
        break;
      case 5:
        // Refused for genesis, the frontier and evicted blocks.
        if (dag.Evict(pick).ok()) ++evicted;
        break;
      case 6:
        if (dag.PresenceOf(pick) == Presence::kEvicted) {
          ASSERT_TRUE(dag.Restore(bodies.at(pick)).ok());
          ++restored;
        }
        break;
      case 7: {
        if (step % 2 == 0) {
          Dag copy(dag);
          ExpectSummariesMatchFreshFold(copy);
          dag = std::move(copy);
        } else {
          Dag assigned(other_genesis);
          assigned = dag;
          ExpectSummariesMatchFreshFold(assigned);
          // The copy is independent: growing it leaves the source.
          const Block b = f.MakeBlock({known.back()}, 100'000 + step);
          ASSERT_TRUE(assigned.Insert(b).ok());
          ExpectSummariesMatchFreshFold(assigned);
          ExpectSummariesMatchFreshFold(dag);
          EXPECT_FALSE(assigned.range_digest() == dag.range_digest());
        }
        break;
      }
      case 8: {
        Dag moved(std::move(dag));
        ExpectSummariesMatchFreshFold(moved);
        dag = std::move(moved);
        break;
      }
      case 9: {
        auto back = DeserializeDag(SerializeDag(dag));
        ASSERT_TRUE(back.ok()) << back.status().message();
        ExpectSummariesMatchFreshFold(*back);
        ExpectSameSummaries(*back, dag);
        dag = std::move(back).value();
        break;
      }
    }
    ExpectSummariesMatchFreshFold(dag);
    ASSERT_EQ(dag.Size(), known.size());
  }
  EXPECT_GT(evicted, 0);
  EXPECT_GT(restored, 0);
}

// Eviction and restore keep the hash set, so they keep the summaries.
TEST(DagSetdiffSummaryTest, EvictAndRestoreLeaveSummariesAlone) {
  Fixture f;
  Dag dag(f.genesis);
  const std::vector<BlockHash> inserted = f.Grow(&dag, 40, 17);
  const Dag before(dag);
  std::map<BlockHash, Block> bodies;
  for (const BlockHash& h : inserted) {
    if (h != f.genesis.hash() && dag.Evict(h).ok()) {
      // Evict drops the body; keep it from the untouched copy.
      bodies.emplace(h, *before.Find(h));
    }
  }
  ASSERT_FALSE(bodies.empty());
  ExpectSameSummaries(dag, before);
  for (const auto& [h, body] : bodies) ASSERT_TRUE(dag.Restore(body).ok());
  ExpectSameSummaries(dag, before);
  ExpectSummariesMatchFreshFold(dag);
}

}  // namespace
}  // namespace vegvisir::chain
