// M DFS partitions behind one namespace.
//
// ShardedDfs composes M DfsPartitions with a ShardMap location directory.
// Used two ways:
//
//   - As a *global* Dfs (the planner's view): Put routes each relation to
//     its owning partition, Get resolves the owner through the directory.
//     Everything is "local" from this vantage point — the planner never
//     pays fetch charges, placement does.
//   - Through per-shard *views* (View(k)): a Dfs whose IsLocal(name) answers
//     from the directory, and whose Get deep-copies tables another shard
//     owns — counting the bytes and timing the copy, so a run reports the
//     cross-shard volume it moved and the byte rate it observed.
//     Put through a view stores into the view's own partition and pins the
//     relation there (placement-near-data: outputs live where they were
//     produced), erasing any stale copy at the previous owner.
//
// Fault story: partitions outlive their shard's compute (the HDFS
// replication stand-in). RemoveShard/DrainShard only remove a shard from
// *placement*; its data stays readable, and Get falls back to scanning all
// partitions (re-pinning on a hit) when the directory's answer misses —
// which is what keeps results bit-identical across shard failovers.

#ifndef MUSKETEER_SRC_CLUSTER_SHARDED_DFS_H_
#define MUSKETEER_SRC_CLUSTER_SHARDED_DFS_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/dfs.h"
#include "src/cluster/shard_map.h"

namespace musketeer {

class ShardedDfs;

// The Dfs a shard's engines see: local partition at native speed,
// everything else a measured fetch. Obtained from ShardedDfs::View; lifetime
// is owned by the parent.
class ShardViewDfs final : public Dfs {
 public:
  void Put(const std::string& name, TablePtr table) override;
  StatusOr<TablePtr> Get(const std::string& name) const override;
  bool Contains(const std::string& name) const override;
  void Erase(const std::string& name) override;
  // Global namespace: planning against a view must see every relation.
  std::vector<std::string> ListRelations() const override;
  bool IsLocal(const std::string& name) const override;
  // Content-versions are namespace-global, shared with the parent.
  uint64_t VersionOf(const std::string& name) const override;

 private:
  friend class ShardedDfs;
  ShardViewDfs(ShardedDfs* parent, int shard)
      : parent_(parent), shard_(shard) {}

  ShardedDfs* const parent_;
  const int shard_;
};

class ShardedDfs final : public Dfs {
 public:
  explicit ShardedDfs(int num_shards);
  ~ShardedDfs() override = default;

  // Global namespace operations (the planner / coordinator vantage point).
  void Put(const std::string& name, TablePtr table) override;
  StatusOr<TablePtr> Get(const std::string& name) const override;
  bool Contains(const std::string& name) const override;
  void Erase(const std::string& name) override;
  std::vector<std::string> ListRelations() const override;

  // Per-shard view; k in [0, num_shards).
  Dfs* View(int shard);

  ShardMap& shard_map() { return map_; }
  const ShardMap& shard_map() const { return map_; }
  int num_shards() const { return static_cast<int>(partitions_.size()); }

  // Fetch-over-network accounting: every remote Get through a view counts
  // here (nominal bytes; copy time measured on the physical sample).
  uint64_t remote_fetches() const {
    return remote_fetches_.load(std::memory_order_relaxed);
  }
  Bytes remote_bytes_fetched() const {
    return remote_bytes_.load(std::memory_order_relaxed);
  }
  // Measured cross-shard transfer rate (MB/s) from the timed copies; 0
  // until the first fetch. A reported measurement only: placement counts
  // bytes, not seconds.
  double measured_remote_mbps() const;

 private:
  friend class ShardViewDfs;

  // Version-bump relay for the views (BumpVersion is protected in Dfs and
  // not reachable through a ShardedDfs* from another class).
  void AggregateBumpVersion(const std::string& name) { BumpVersion(name); }

  // Resolve `name` for a reader on `shard` (-1 = the global view): local
  // pointer when the owner matches, otherwise a timed deep copy. Falls back
  // to scanning every partition (and re-pinning) when the directory's
  // answer has no data — the post-failover recovery path.
  StatusOr<TablePtr> FetchForShard(const std::string& name, int shard) const;

  // mutable: FetchForShard (const — it serves reads) repairs the directory
  // after a miss; ShardMap is internally synchronized.
  mutable ShardMap map_;
  std::vector<std::unique_ptr<DfsPartition>> partitions_;
  std::vector<std::unique_ptr<ShardViewDfs>> views_;

  mutable std::atomic<uint64_t> remote_fetches_{0};
  mutable std::atomic<Bytes> remote_bytes_{0};        // nominal
  mutable std::atomic<Bytes> copied_sample_bytes_{0}; // physical
  mutable std::atomic<double> copy_seconds_{0};
};

}  // namespace musketeer

#endif  // MUSKETEER_SRC_CLUSTER_SHARDED_DFS_H_
