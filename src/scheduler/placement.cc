#include "src/scheduler/placement.h"

#include <algorithm>

namespace musketeer {

namespace {

// SplitMix64 finalizer — the same mix the ShardMap ring uses, applied to
// (seed ^ job-name hash) so random placement is deterministic per job.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kLocality:
      return "locality";
    case PlacementPolicy::kRandom:
      return "random";
  }
  return "unknown";
}

std::optional<PlacementPolicy> PlacementPolicyFromName(
    const std::string& name) {
  if (name == "locality" || name == "local") {
    return PlacementPolicy::kLocality;
  }
  if (name == "random" || name == "rand") {
    return PlacementPolicy::kRandom;
  }
  return std::nullopt;
}

ShardPlacer::ShardPlacer(const ShardMap* map, PlacementPolicy policy,
                         uint64_t seed)
    : map_(map), policy_(policy), seed_(seed) {}

namespace {

// Input bytes resident on each candidate shard, per the directory, plus the
// index of the byte-optimal candidate (most resident bytes; lowest shard id
// on ties, so decisions are deterministic across runs).
struct LocalBytes {
  Bytes total = 0;
  std::vector<Bytes> per_candidate;
  size_t best = 0;
};

LocalBytes ResidentBytes(const ShardMap* map,
                         const std::vector<std::pair<std::string, Bytes>>& inputs,
                         const std::vector<int>& candidates) {
  LocalBytes out;
  out.per_candidate.assign(candidates.size(), 0);
  for (const auto& [relation, bytes] : inputs) {
    out.total += bytes;
    if (map == nullptr) {
      continue;
    }
    const int owner = map->OwnerOf(relation);
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (candidates[i] == owner) {
        out.per_candidate[i] += bytes;
        break;
      }
    }
  }
  for (size_t i = 1; i < candidates.size(); ++i) {
    if (out.per_candidate[i] > out.per_candidate[out.best] ||
        (out.per_candidate[i] == out.per_candidate[out.best] &&
         candidates[i] < candidates[out.best])) {
      out.best = i;
    }
  }
  return out;
}

}  // namespace

PlacementDecision ShardPlacer::Place(
    const std::string& job_name,
    const std::vector<std::pair<std::string, Bytes>>& inputs,
    const std::vector<int>& candidates) {
  PlacementDecision decision;
  if (candidates.empty()) {
    return decision;
  }
  const LocalBytes local = ResidentBytes(map_, inputs, candidates);
  size_t chosen = local.best;
  if (policy_ == PlacementPolicy::kRandom) {
    chosen = static_cast<size_t>(
        Mix64(seed_ ^ ShardMap::HashName(job_name)) % candidates.size());
  }
  decision.shard = candidates[chosen];
  decision.local_bytes = local.per_candidate[chosen];
  decision.remote_bytes = local.total - local.per_candidate[chosen];
  decision.locality_hit =
      local.per_candidate[chosen] >= local.per_candidate[local.best];

  ++placements_;
  if (decision.locality_hit) {
    ++locality_hits_;
  }
  cross_shard_bytes_ += decision.remote_bytes;
  return decision;
}

}  // namespace musketeer
