#include "src/cluster/sharded_dfs.h"

#include <algorithm>
#include <chrono>
#include <set>

namespace musketeer {

// ---- ShardViewDfs ----------------------------------------------------------

void ShardViewDfs::Put(const std::string& name, TablePtr table) {
  // Placement-near-data: outputs land in the producing shard's partition and
  // the directory pins them there. A stale copy at the previous owner (e.g.
  // an overwritten base relation) is dropped so there is exactly one
  // authoritative location.
  const int previous = parent_->map_.OwnerOf(name);
  parent_->partitions_[static_cast<size_t>(shard_)]->Put(name, std::move(table));
  parent_->map_.Pin(name, shard_);
  if (previous != shard_ && previous >= 0 &&
      previous < parent_->num_shards()) {
    parent_->partitions_[static_cast<size_t>(previous)]->Erase(name);
  }
  // Versions are namespace-global: a failover re-put through a view must
  // invalidate fingerprints exactly like a global overwrite would.
  parent_->AggregateBumpVersion(name);
}

uint64_t ShardViewDfs::VersionOf(const std::string& name) const {
  return parent_->VersionOf(name);
}

StatusOr<TablePtr> ShardViewDfs::Get(const std::string& name) const {
  return parent_->FetchForShard(name, shard_);
}

bool ShardViewDfs::Contains(const std::string& name) const {
  return parent_->Contains(name);
}

void ShardViewDfs::Erase(const std::string& name) { parent_->Erase(name); }

std::vector<std::string> ShardViewDfs::ListRelations() const {
  return parent_->ListRelations();
}

bool ShardViewDfs::IsLocal(const std::string& name) const {
  return parent_->map_.OwnerOf(name) == shard_;
}

// ---- ShardedDfs ------------------------------------------------------------

ShardedDfs::ShardedDfs(int num_shards) : map_(num_shards) {
  const int count = std::max(1, num_shards);
  partitions_.reserve(static_cast<size_t>(count));
  views_.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    partitions_.push_back(std::make_unique<DfsPartition>());
    views_.push_back(
        std::unique_ptr<ShardViewDfs>(new ShardViewDfs(this, i)));
  }
}

Dfs* ShardedDfs::View(int shard) {
  return views_[static_cast<size_t>(shard)].get();
}

void ShardedDfs::Put(const std::string& name, TablePtr table) {
  int owner = map_.OwnerOf(name);
  if (owner < 0 || owner >= num_shards()) {
    owner = 0;
  }
  partitions_[static_cast<size_t>(owner)]->Put(name, std::move(table));
  // Routed straight into a partition (not through Dfs::Put), so the version
  // bump is explicit here.
  BumpVersion(name);
}

StatusOr<TablePtr> ShardedDfs::Get(const std::string& name) const {
  // The global vantage point: resolve through the directory, no fetch
  // charge (shard = -1 never mismatches an owner).
  return FetchForShard(name, -1);
}

bool ShardedDfs::Contains(const std::string& name) const {
  const int owner = map_.OwnerOf(name);
  if (owner >= 0 && owner < num_shards() &&
      partitions_[static_cast<size_t>(owner)]->Contains(name)) {
    return true;
  }
  for (const auto& partition : partitions_) {
    if (partition->Contains(name)) {
      return true;
    }
  }
  return false;
}

void ShardedDfs::Erase(const std::string& name) {
  for (const auto& partition : partitions_) {
    partition->Erase(name);
  }
  map_.Unpin(name);
}

std::vector<std::string> ShardedDfs::ListRelations() const {
  std::set<std::string> names;
  for (const auto& partition : partitions_) {
    for (std::string& name : partition->ListRelations()) {
      names.insert(std::move(name));
    }
  }
  return {names.begin(), names.end()};
}

StatusOr<TablePtr> ShardedDfs::FetchForShard(const std::string& name,
                                             int shard) const {
  int owner = map_.OwnerOf(name);
  StatusOr<TablePtr> table =
      (owner >= 0 && owner < num_shards())
          ? partitions_[static_cast<size_t>(owner)]->Get(name)
          : StatusOr<TablePtr>(
                NotFoundError("DFS relation '" + name + "' does not exist"));
  if (!table.ok()) {
    // Directory miss (post-failover, or a membership change that remapped a
    // base relation): the data still lives in some partition — find it and
    // repair the directory so the next reader resolves in one hop.
    for (int k = 0; k < num_shards(); ++k) {
      auto found = partitions_[static_cast<size_t>(k)]->Get(name);
      if (found.ok()) {
        map_.Pin(name, k);
        owner = k;
        table = std::move(found);
        break;
      }
    }
    if (!table.ok()) {
      return table.status();
    }
  }
  if (shard < 0 || owner == shard) {
    return table;  // local read (or the global view): no fetch charge
  }
  // Cross-shard fetch: deep-copy the table (columns and all) and time it
  // for the reported measured byte rate. The copy is bit-identical by
  // construction (Table's copy ctor), so sharded runs stay Table::Identical
  // to 1-shard runs.
  const auto start = std::chrono::steady_clock::now();
  auto copy = std::make_shared<Table>(**table);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  remote_fetches_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&remote_bytes_, copy->nominal_bytes());
  AtomicAdd(&copied_sample_bytes_, copy->sample_bytes());
  AtomicAdd(&copy_seconds_, seconds);
  return TablePtr(std::move(copy));
}

double ShardedDfs::measured_remote_mbps() const {
  const double seconds = copy_seconds_.load(std::memory_order_relaxed);
  const Bytes bytes = copied_sample_bytes_.load(std::memory_order_relaxed);
  if (seconds <= 0 || bytes <= 0) {
    return 0;
  }
  return (bytes / seconds) / (1024.0 * 1024.0);
}

}  // namespace musketeer
