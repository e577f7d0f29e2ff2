// Relation-location directory for the sharded DFS (PR 8).
//
// Maps every relation name to the shard that owns its partition. Two layers:
//
//   1. A pluggable hash-partitioning *strategy* decides where unseen (base)
//      relations live. kConsistentHash builds the classic ring with virtual
//      nodes, so adding or removing a shard moves only ~1/M of the keyspace
//      (the stability property cluster_test asserts); kModulo is the naive
//      hash(name) % M baseline the RDF-partitioning comparison (PAPERS.md)
//      measures against — cheap, but re-sharding moves almost everything.
//   2. A *pin* directory recording where produced relations actually landed:
//      a shard that executes a job Put()s the outputs into its own partition
//      and pins them there, which is what makes placement-near-data work for
//      intermediates (the strategy only ever places base inputs).
//
// Thread-safety: all operations take a shared_mutex; reads (OwnerOf — the
// placement hot path) share the lock, membership changes and pins are
// exclusive.

#ifndef MUSKETEER_SRC_CLUSTER_SHARD_MAP_H_
#define MUSKETEER_SRC_CLUSTER_SHARD_MAP_H_

#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace musketeer {

enum class ShardingStrategy {
  kConsistentHash,  // ring + virtual nodes; <= ~1/M keys move per change
  kModulo,          // hash(name) % alive-count; re-sharding moves ~all keys
};

const char* ShardingStrategyName(ShardingStrategy strategy);

class ShardMap {
 public:
  // Shards are born 0..num_shards-1 and all alive. `vnodes_per_shard` spreads
  // each shard over the ring (consistent hashing only); 128 keeps the
  // expected move fraction on membership change within a few percent of the
  // ideal 1/(M+1).
  explicit ShardMap(int num_shards,
                    ShardingStrategy strategy = ShardingStrategy::kConsistentHash,
                    int vnodes_per_shard = 128);

  // The shard owning `name`: its pinned location when one exists, otherwise
  // the strategy's placement among alive shards.
  int OwnerOf(const std::string& name) const;

  // The strategy's placement, ignoring pins (what OwnerOf returns for a
  // relation no shard has produced yet).
  int StrategyOwnerOf(const std::string& name) const;

  // Records that `shard` holds the authoritative copy of `name`. Pins
  // survive membership changes (the partition's data outlives its shard's
  // compute — the DFS-replication story); callers re-pin on migration.
  void Pin(const std::string& name, int shard);
  void Unpin(const std::string& name);
  std::optional<int> PinnedOwner(const std::string& name) const;

  // Membership. AddShard returns the new shard's id (ids are never reused).
  // RemoveShard only changes future *strategy* placements; pinned relations
  // keep reporting their (now dead) owner until re-pinned.
  int AddShard();
  void RemoveShard(int shard);
  bool IsAlive(int shard) const;
  int num_alive() const;
  // Upper bound over all ids ever issued (alive or not).
  int max_shard_id() const;

  ShardingStrategy strategy() const { return strategy_; }

  // Deterministic FNV-1a over the name bytes — fixed across platforms and
  // runs, so ownership (and therefore placement and every test asserting on
  // it) is stable.
  static uint64_t HashName(const std::string& name);

 private:
  void RebuildRingLocked();  // requires exclusive mu_

  const ShardingStrategy strategy_;
  const int vnodes_;

  mutable std::shared_mutex mu_;
  int next_shard_id_ = 0;                         // guarded by mu_
  std::vector<int> alive_;                        // sorted; guarded by mu_
  std::vector<std::pair<uint64_t, int>> ring_;    // sorted by hash; mu_
  std::unordered_map<std::string, int> pins_;     // guarded by mu_
};

}  // namespace musketeer

#endif  // MUSKETEER_SRC_CLUSTER_SHARD_MAP_H_
