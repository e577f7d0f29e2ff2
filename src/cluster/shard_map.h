// Relation-location directory for the sharded DFS (PR 8).
//
// Maps every relation name to the shard that owns its partition. Two layers:
//
//   1. A consistent-hash ring with virtual nodes decides where unseen (base)
//      relations live, so adding or removing a shard moves only ~1/M of the
//      keyspace (the stability property cluster_test asserts).
//   2. A *pin* directory recording where produced relations actually landed:
//      a shard that executes a job Put()s the outputs into its own partition
//      and pins them there, which is what makes placement-near-data work for
//      intermediates (the ring only ever places base inputs).
//
// Thread-safety: all operations take a shared_mutex; reads (OwnerOf — the
// placement hot path) share the lock, membership changes and pins are
// exclusive.

#ifndef MUSKETEER_SRC_CLUSTER_SHARD_MAP_H_
#define MUSKETEER_SRC_CLUSTER_SHARD_MAP_H_

#include <cstdint>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace musketeer {

class ShardMap {
 public:
  // Shards are born 0..num_shards-1 and all alive.
  explicit ShardMap(int num_shards);

  // The shard owning `name`: its pinned location when one exists, otherwise
  // the ring's placement among alive shards.
  int OwnerOf(const std::string& name) const;

  // Records that `shard` holds the authoritative copy of `name`. Pins
  // survive membership changes (the partition's data outlives its shard's
  // compute — the DFS-replication story); callers re-pin on migration.
  void Pin(const std::string& name, int shard);
  void Unpin(const std::string& name);

  // Membership only shrinks after construction. RemoveShard only changes
  // future *ring* placements; pinned relations keep reporting their (now
  // dead) owner until re-pinned.
  void RemoveShard(int shard);

  // Deterministic FNV-1a over the name bytes — fixed across platforms and
  // runs, so ownership (and therefore placement and every test asserting on
  // it) is stable.
  static uint64_t HashName(const std::string& name);

 private:
  void RebuildRingLocked();  // requires exclusive mu_
  // The ring's placement of `name` among alive shards; requires mu_ (shared
  // or exclusive).
  int RingOwnerLocked(const std::string& name) const;

  mutable std::shared_mutex mu_;
  std::vector<int> alive_;                        // sorted; guarded by mu_
  std::vector<std::pair<uint64_t, int>> ring_;    // sorted by hash; mu_
  std::unordered_map<std::string, int> pins_;     // guarded by mu_
};

}  // namespace musketeer

#endif  // MUSKETEER_SRC_CLUSTER_SHARD_MAP_H_
