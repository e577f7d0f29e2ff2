#include "src/cluster/shard_map.h"

#include <algorithm>
#include <limits>
#include <mutex>

namespace musketeer {

namespace {

// SplitMix64 finalizer: decorrelates the (shard, vnode) lattice into ring
// positions so vnodes of one shard do not cluster.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* ShardingStrategyName(ShardingStrategy strategy) {
  switch (strategy) {
    case ShardingStrategy::kConsistentHash:
      return "consistent-hash";
    case ShardingStrategy::kModulo:
      return "modulo";
  }
  return "unknown";
}

uint64_t ShardMap::HashName(const std::string& name) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  for (unsigned char c : name) {
    h ^= c;
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

ShardMap::ShardMap(int num_shards, ShardingStrategy strategy,
                   int vnodes_per_shard)
    : strategy_(strategy), vnodes_(std::max(1, vnodes_per_shard)) {
  const int count = std::max(1, num_shards);
  alive_.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    alive_.push_back(i);
  }
  next_shard_id_ = count;
  RebuildRingLocked();  // constructor: no concurrent access yet
}

void ShardMap::RebuildRingLocked() {
  ring_.clear();
  if (strategy_ != ShardingStrategy::kConsistentHash) {
    return;
  }
  ring_.reserve(alive_.size() * static_cast<size_t>(vnodes_));
  for (int shard : alive_) {
    for (int v = 0; v < vnodes_; ++v) {
      const uint64_t pos =
          Mix64((static_cast<uint64_t>(shard) << 32) | static_cast<uint64_t>(v));
      ring_.emplace_back(pos, shard);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

int ShardMap::OwnerOf(const std::string& name) const {
  std::shared_lock lock(mu_);
  auto pin = pins_.find(name);
  if (pin != pins_.end()) {
    return pin->second;
  }
  if (alive_.empty()) {
    return 0;
  }
  const uint64_t h = HashName(name);
  if (strategy_ == ShardingStrategy::kModulo) {
    return alive_[h % alive_.size()];
  }
  // First vnode clockwise of the key's ring position (wrapping).
  auto it = std::lower_bound(ring_.begin(), ring_.end(),
                             std::make_pair(h, std::numeric_limits<int>::min()));
  if (it == ring_.end()) {
    it = ring_.begin();
  }
  return it->second;
}

int ShardMap::StrategyOwnerOf(const std::string& name) const {
  std::shared_lock lock(mu_);
  if (alive_.empty()) {
    return 0;
  }
  const uint64_t h = HashName(name);
  if (strategy_ == ShardingStrategy::kModulo) {
    return alive_[h % alive_.size()];
  }
  auto it = std::lower_bound(ring_.begin(), ring_.end(),
                             std::make_pair(h, std::numeric_limits<int>::min()));
  if (it == ring_.end()) {
    it = ring_.begin();
  }
  return it->second;
}

void ShardMap::Pin(const std::string& name, int shard) {
  std::unique_lock lock(mu_);
  pins_[name] = shard;
}

void ShardMap::Unpin(const std::string& name) {
  std::unique_lock lock(mu_);
  pins_.erase(name);
}

std::optional<int> ShardMap::PinnedOwner(const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = pins_.find(name);
  if (it == pins_.end()) {
    return std::nullopt;
  }
  return it->second;
}

int ShardMap::AddShard() {
  std::unique_lock lock(mu_);
  const int id = next_shard_id_++;
  alive_.push_back(id);
  std::sort(alive_.begin(), alive_.end());
  RebuildRingLocked();
  return id;
}

void ShardMap::RemoveShard(int shard) {
  std::unique_lock lock(mu_);
  alive_.erase(std::remove(alive_.begin(), alive_.end(), shard), alive_.end());
  RebuildRingLocked();
}

bool ShardMap::IsAlive(int shard) const {
  std::shared_lock lock(mu_);
  return std::binary_search(alive_.begin(), alive_.end(), shard);
}

int ShardMap::num_alive() const {
  std::shared_lock lock(mu_);
  return static_cast<int>(alive_.size());
}

int ShardMap::max_shard_id() const {
  std::shared_lock lock(mu_);
  return next_shard_id_;
}

}  // namespace musketeer
