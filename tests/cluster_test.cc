// Cluster model and DFS tests, including the sharded layer: the ShardMap
// directory's consistent-hash stability under membership change, pins, and
// per-shard DFS views with fetch-over-network accounting.

#include "src/cluster/cluster.h"

#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/dfs.h"
#include "src/cluster/shard_map.h"
#include "src/cluster/sharded_dfs.h"

namespace musketeer {
namespace {

TEST(ClusterTest, PresetsHaveExpectedShapes) {
  ClusterConfig local = LocalCluster();
  EXPECT_EQ(local.num_nodes, 7);
  ClusterConfig ec2 = Ec2Cluster(100);
  EXPECT_EQ(ec2.num_nodes, 100);
  EXPECT_EQ(ec2.name, "ec2-100");
  ClusterConfig single = SingleMachine();
  EXPECT_EQ(single.num_nodes, 1);
}

TEST(ClusterTest, BandwidthAggregatesAcrossNodes) {
  ClusterConfig ec2 = Ec2Cluster(10);
  EXPECT_DOUBLE_EQ(ec2.ReadBandwidth(10), 10 * MBps(ec2.node_read_mbps));
  // Capped at the cluster size.
  EXPECT_DOUBLE_EQ(ec2.ReadBandwidth(50), 10 * MBps(ec2.node_read_mbps));
  EXPECT_LT(ec2.WriteBandwidth(10), ec2.ReadBandwidth(10));
}

TEST(DfsTest, PutGetEraseAndList) {
  Dfs dfs;
  auto t = std::make_shared<Table>(Schema({{"x", FieldType::kInt64}}));
  EXPECT_FALSE(dfs.Contains("a"));
  EXPECT_FALSE(dfs.Get("a").ok());
  dfs.Put("b", t);
  dfs.Put("a", t);
  EXPECT_TRUE(dfs.Contains("a"));
  EXPECT_TRUE(dfs.Get("a").ok());
  EXPECT_EQ(dfs.ListRelations(), (std::vector<std::string>{"a", "b"}));
  dfs.Erase("a");
  EXPECT_FALSE(dfs.Contains("a"));
  EXPECT_EQ(dfs.ListRelations(), (std::vector<std::string>{"b"}));
}

TEST(DfsTest, PutReplacesExisting) {
  Dfs dfs;
  auto t1 = std::make_shared<Table>(Schema({{"x", FieldType::kInt64}}));
  auto t2 = std::make_shared<Table>(Schema({{"y", FieldType::kDouble}}));
  dfs.Put("r", t1);
  dfs.Put("r", t2);
  auto got = dfs.Get("r");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->schema().field(0).name, "y");
}

// ---- ShardMap --------------------------------------------------------------

// Ownership of every key across the shards, ring placements only.
std::unordered_map<std::string, int> OwnersOf(const ShardMap& map, int keys) {
  std::unordered_map<std::string, int> owners;
  for (int i = 0; i < keys; ++i) {
    const std::string name = "relation_" + std::to_string(i);
    owners[name] = map.OwnerOf(name);
  }
  return owners;
}

int MovedKeys(const std::unordered_map<std::string, int>& before,
              const std::unordered_map<std::string, int>& after) {
  int moved = 0;
  for (const auto& [name, owner] : before) {
    if (after.at(name) != owner) {
      ++moved;
    }
  }
  return moved;
}

// The consistent-hash stability property: adding or removing a shard moves
// only about 1/M of the keyspace (we allow 2x slack for vnode variance).
TEST(ShardMapTest, ConsistentHashMovesFewKeysOnMembershipChange) {
  constexpr int kKeys = 2000;

  // Five shards are the four plus shard 4.
  auto before = OwnersOf(ShardMap(4), kKeys);
  ShardMap ring(5);
  auto grown = OwnersOf(ring, kKeys);
  const int moved_on_add = MovedKeys(before, grown);
  // Ideal is 1/5 of the keys; assert within 2x, and that it actually moved
  // something (the new shard must take ownership of part of the ring).
  EXPECT_GT(moved_on_add, 0);
  EXPECT_LE(moved_on_add, 2 * kKeys / 5);
  // Keys that moved all moved TO the new shard, never between old shards.
  for (const auto& [name, owner] : before) {
    const int now = grown.at(name);
    if (now != owner) {
      EXPECT_EQ(now, 4) << name << " moved between pre-existing shards";
    }
  }

  // Removing the shard restores the original assignment exactly.
  ring.RemoveShard(4);
  EXPECT_EQ(MovedKeys(before, OwnersOf(ring, kKeys)), 0);
}

TEST(ShardMapTest, PinsWinOverStrategyAndSurviveMembershipChanges) {
  ShardMap map(3);
  const std::string name = "produced_intermediate";
  const int ring_owner = map.OwnerOf(name);
  const int pinned = (ring_owner + 1) % 3;

  map.Pin(name, pinned);
  EXPECT_EQ(map.OwnerOf(name), pinned);
  // The pin leaves the ring alone: an unpinned map still places the name
  // where it did.
  EXPECT_EQ(ShardMap(3).OwnerOf(name), ring_owner);

  // Pins outlive the pinned shard's compute (the data is still in its
  // partition) — RemoveShard must not silently re-home the relation.
  map.RemoveShard(pinned);
  EXPECT_EQ(map.OwnerOf(name), pinned);

  // Unpinned, the relation goes where the ring of the alive shards puts it.
  map.Unpin(name);
  const int rehomed = map.OwnerOf(name);
  EXPECT_NE(rehomed, pinned);
  ShardMap alive(3);
  alive.RemoveShard(pinned);
  EXPECT_EQ(rehomed, alive.OwnerOf(name));
}

TEST(ShardMapTest, HashNameIsStableAcrossCalls) {
  // Deterministic hash over the bytes: ownership is reproducible across
  // processes (socket-mode peers each compute OwnerOf independently), so two
  // maps built the same way must agree on every owner.
  EXPECT_EQ(ShardMap::HashName("lineitem"), ShardMap::HashName("lineitem"));
  EXPECT_NE(ShardMap::HashName("lineitem"), ShardMap::HashName("part"));
  ShardMap a(3);
  ShardMap b(3);
  for (int i = 0; i < 100; ++i) {
    const std::string name = "rel_" + std::to_string(i);
    EXPECT_EQ(a.OwnerOf(name), b.OwnerOf(name));
  }
}

// ---- ShardedDfs ------------------------------------------------------------

TablePtr MakeIntTable(int64_t rows) {
  Table table(Schema({{"x", FieldType::kInt64}}));
  for (int64_t i = 0; i < rows; ++i) {
    table.AddRow({i});
  }
  return std::make_shared<Table>(std::move(table));
}

// A view reading its own partition is free; reading another shard's relation
// is a counted fetch of the relation's nominal bytes, and the fetched copy
// is bit-identical to the original.
TEST(ShardedDfsTest, ViewFetchAccountingSplitsLocalFromRemote) {
  ShardedDfs dfs(2);
  TablePtr table = MakeIntTable(64);
  dfs.Put("rel", table);
  const int owner = dfs.shard_map().OwnerOf("rel");
  const int other = 1 - owner;

  EXPECT_TRUE(dfs.View(owner)->IsLocal("rel"));
  EXPECT_FALSE(dfs.View(other)->IsLocal("rel"));

  auto local = dfs.View(owner)->Get("rel");
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local->get(), table.get());  // same object: no copy, no charge
  EXPECT_EQ(dfs.remote_fetches(), 0u);
  EXPECT_DOUBLE_EQ(dfs.remote_bytes_fetched(), 0.0);

  auto remote = dfs.View(other)->Get("rel");
  ASSERT_TRUE(remote.ok());
  EXPECT_NE(remote->get(), table.get());  // deep copy crossed the "network"
  EXPECT_TRUE(Table::Identical(*table, **remote));
  EXPECT_EQ(dfs.remote_fetches(), 1u);
  EXPECT_DOUBLE_EQ(dfs.remote_bytes_fetched(), table->nominal_bytes());
  EXPECT_GT(dfs.measured_remote_mbps(), 0.0);

  // The global (planner) vantage point never pays fetch charges.
  ASSERT_TRUE(dfs.Get("rel").ok());
  EXPECT_EQ(dfs.remote_fetches(), 1u);
}

// Placement-near-data: a view's Put lands in its own partition, pins the
// relation there, and drops the stale copy at the ring owner.
TEST(ShardedDfsTest, ViewPutPinsOutputAndDropsStaleCopy) {
  ShardedDfs dfs(3);
  const std::string name = "intermediate";
  const int ring_owner = dfs.shard_map().OwnerOf(name);
  dfs.Put(name, MakeIntTable(8));  // v1 at the ring owner
  ASSERT_TRUE(dfs.View(ring_owner)->IsLocal(name));

  const int producer = (ring_owner + 1) % 3;
  dfs.View(producer)->Put(name, MakeIntTable(16));  // v2, produced elsewhere
  EXPECT_EQ(dfs.shard_map().OwnerOf(name), producer);
  EXPECT_TRUE(dfs.View(producer)->IsLocal(name));
  EXPECT_FALSE(dfs.View(ring_owner)->IsLocal(name));

  // Exactly one authoritative copy: the global read resolves to v2.
  auto table = dfs.Get(name);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 16u);
  EXPECT_EQ(dfs.ListRelations(), (std::vector<std::string>{name}));

  // v1 is gone from the ring owner: pointed back there, the directory finds
  // no copy, and the read falls back to v2 at the producer.
  dfs.shard_map().Pin(name, ring_owner);
  table = dfs.Get(name);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 16u);
  EXPECT_EQ(dfs.shard_map().OwnerOf(name), producer);
}

// Post-failover read path: when the directory's answer has no data (the
// relation was placed before a membership change), Get scans the partitions,
// serves the hit, and repairs the directory so the next read is one hop.
TEST(ShardedDfsTest, DirectoryMissFallsBackToScanAndRepairs) {
  ShardedDfs dfs(3);
  const std::string name = "orphan";
  dfs.Put(name, MakeIntTable(4));
  const int holder = dfs.shard_map().OwnerOf(name);

  // Simulate a stale directory: strategy re-homes the relation elsewhere.
  dfs.shard_map().RemoveShard(holder);
  ASSERT_NE(dfs.shard_map().OwnerOf(name), holder);

  auto table = dfs.Get(name);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->num_rows(), 4u);
  // Repaired: pinned back to the partition that actually holds the bytes.
  EXPECT_EQ(dfs.shard_map().OwnerOf(name), holder);
}

}  // namespace
}  // namespace musketeer
