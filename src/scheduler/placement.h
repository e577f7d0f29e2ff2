// Shard placement.
//
// Decides which shard executes a job, given where the job's input relations
// live (the ShardMap directory) and how big they are. This is the one
// placement rule of a sharded run. The locality policy sends the job to the
// candidate shard that holds the most of its input bytes (lowest shard id
// on ties), which is the candidate that fetches the fewest bytes from other
// shards. Engine choice does not enter: the job's engine cost is the same
// on every shard, so the bytes it would move are all that tell shards
// apart. The random policy is the control arm bench_shard_scaling compares
// against: deterministic (seeded, keyed on the job name) so runs are
// reproducible, but blind to data placement.
//
// Thread-safety: NOT internally synchronized. The ShardCoordinator places
// jobs under its own lock; the running stats (placements, locality hits,
// cross-shard bytes) are plain members.

#ifndef MUSKETEER_SRC_SCHEDULER_PLACEMENT_H_
#define MUSKETEER_SRC_SCHEDULER_PLACEMENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/base/units.h"
#include "src/cluster/shard_map.h"

namespace musketeer {

enum class PlacementPolicy {
  kLocality,  // argmax of input bytes resident on the candidate shard
  kRandom,    // seeded hash of the job name — the locality-blind baseline
};

const char* PlacementPolicyName(PlacementPolicy policy);
std::optional<PlacementPolicy> PlacementPolicyFromName(const std::string& name);

struct PlacementDecision {
  int shard = 0;
  Bytes local_bytes = 0;   // input bytes already resident on `shard`
  Bytes remote_bytes = 0;  // input bytes the shard must fetch cross-shard
  // True when `shard` holds at least as many input bytes as any candidate —
  // i.e. the decision achieved locality. Random placements score hits only
  // by luck, which is exactly the gap the bench measures.
  bool locality_hit = false;
};

class ShardPlacer {
 public:
  // `map` (not owned, may be null for a 1-shard setup) resolves relation
  // ownership; `seed` only matters for kRandom.
  ShardPlacer(const ShardMap* map, PlacementPolicy policy, uint64_t seed = 0);

  // Places one job and adds the decision to the running stats. `inputs` are
  // the job's input relations with their current nominal sizes;
  // `candidates` are the alive shards eligible to run it (must be
  // non-empty).
  PlacementDecision Place(
      const std::string& job_name,
      const std::vector<std::pair<std::string, Bytes>>& inputs,
      const std::vector<int>& candidates);

  uint64_t placements() const { return placements_; }
  uint64_t locality_hits() const { return locality_hits_; }
  Bytes cross_shard_bytes() const { return cross_shard_bytes_; }
  double locality_hit_rate() const {
    return placements_ == 0
               ? 1.0
               : static_cast<double>(locality_hits_) /
                     static_cast<double>(placements_);
  }

  PlacementPolicy policy() const { return policy_; }

 private:
  const ShardMap* map_;  // not owned, may be null
  const PlacementPolicy policy_;
  const uint64_t seed_;

  uint64_t placements_ = 0;
  uint64_t locality_hits_ = 0;
  Bytes cross_shard_bytes_ = 0;
};

}  // namespace musketeer

#endif  // MUSKETEER_SRC_SCHEDULER_PLACEMENT_H_
