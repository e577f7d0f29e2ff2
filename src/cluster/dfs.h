// Simulated shared distributed filesystem (stands in for HDFS).
//
// All workflow inputs, outputs and *inter-job* intermediates live here, as in
// the paper's deployment ("we use a shared HDFS as the storage layer").
// Engines pull inputs from the DFS, push outputs back, and every system
// boundary crossing therefore pays I/O — which is exactly what makes
// combining back-ends a measurable trade-off (Fig. 9).
//
// Sharded layout (PR 8): the raw relation store is factored into
// DfsPartition — the unit a single service shard owns. The seed-behavior
// Dfs owns exactly one partition; ShardedDfs (sharded_dfs.h) composes M
// partitions behind a ShardMap relation-location directory and hands out
// per-shard views whose Get() pays a measured fetch-over-network charge for
// relations another shard owns. The namespace operations are virtual so
// those views slot in anywhere a Dfs* is accepted (engines, the planner),
// while plain `Dfs dfs;` keeps the one-partition seed semantics.
//
// Byte accounting lives with the jobs, not here: ExecuteJob returns the
// bytes a job pulled and pushed in its JobResult, and a run's DFS traffic
// (RunResult::dfs_bytes_*) is the sum over its jobs' results.
//
// Thread-safety contract: a single Dfs is shared by every concurrently
// executing workflow (src/service/), so the namespace is guarded by a
// shared_mutex (concurrent readers, exclusive writers). Tables themselves
// are immutable once Put (TablePtr is shared_ptr<const Table>), so handing
// out the pointer under a shared lock is safe.

#ifndef MUSKETEER_SRC_CLUSTER_DFS_H_
#define MUSKETEER_SRC_CLUSTER_DFS_H_

#include <atomic>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/base/units.h"
#include "src/relational/table.h"

namespace musketeer {

// The raw relation store one shard owns: a name → table map under a
// shared_mutex.
class DfsPartition {
 public:
  DfsPartition() = default;
  DfsPartition(const DfsPartition&) = delete;
  DfsPartition& operator=(const DfsPartition&) = delete;

  void Put(const std::string& name, TablePtr table);
  StatusOr<TablePtr> Get(const std::string& name) const;
  bool Contains(const std::string& name) const;
  void Erase(const std::string& name);
  std::vector<std::string> ListRelations() const;  // sorted
  size_t size() const;

 private:
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, TablePtr> relations_;  // guarded by mu_
};

class Dfs {
 public:
  Dfs() = default;
  virtual ~Dfs() = default;
  Dfs(const Dfs&) = delete;
  Dfs& operator=(const Dfs&) = delete;

  // Stores (or replaces) a relation.
  virtual void Put(const std::string& name, TablePtr table);

  // Fetches a relation; NotFound if absent.
  virtual StatusOr<TablePtr> Get(const std::string& name) const;

  virtual bool Contains(const std::string& name) const;
  virtual void Erase(const std::string& name);

  virtual std::vector<std::string> ListRelations() const;

  // Local-partition namespace: ONLY what this node physically holds, never
  // resolved through peers. The network relation endpoints (GET/PUT
  // /relation) serve from these — a peer asking "what do you hold" must not
  // trigger recursive cross-shard resolution (two event loops asking each
  // other is a distributed deadlock). A server fronts a plain Dfs or a
  // PeerDfs, and both keep their own relations in the base partition.
  StatusOr<TablePtr> GetLocal(const std::string& name) const {
    return Dfs::Get(name);
  }
  void PutLocal(const std::string& name, TablePtr table) {
    Dfs::Put(name, std::move(table));
  }
  std::vector<std::string> ListLocalRelations() const {
    return Dfs::ListRelations();
  }

  // Monotone content-version of a relation: 0 when the name has never been
  // stored, bumped by every Put/overwrite (including shard failover re-puts
  // and peer pushes). Incremental recomputation (src/stream/fingerprint.h)
  // hashes these into per-job fingerprints, so the contract is strictly
  // "version changed => content may have changed"; a version is never reused
  // for different bytes. Versions live in the Dfs-level namespace (not the
  // partition) so sharded views share one counter space with their parent.
  virtual uint64_t VersionOf(const std::string& name) const;

  // True when `name` is stored on the partition this Dfs fronts — i.e. a
  // read costs local DFS bandwidth, not a cross-shard fetch. The
  // single-partition base stores everything locally; sharded views answer
  // from the relation-location directory. Engines split their pull
  // accounting on this (JobResult::bytes_pulled_remote).
  virtual bool IsLocal(const std::string& name) const {
    (void)name;
    return true;
  }

 protected:
  // Bytes is a double; fetch_add on atomic<double> is C++20 but not lock-free
  // everywhere, so spell it as a CAS loop that any toolchain compiles.
  static void AtomicAdd(std::atomic<Bytes>* counter, Bytes delta) {
    Bytes current = counter->load(std::memory_order_relaxed);
    while (!counter->compare_exchange_weak(current, current + delta,
                                           std::memory_order_relaxed)) {
    }
  }

  // Advances the content-version of `name`. Dfs::Put calls this; overrides
  // that store without going through the base Put (sharded routing, peer
  // pushes) must call it themselves or forward into their parent.
  void BumpVersion(const std::string& name);

 private:
  mutable std::shared_mutex version_mu_;
  std::unordered_map<std::string, uint64_t> versions_;  // guarded by version_mu_
  DfsPartition local_;
};

}  // namespace musketeer

#endif  // MUSKETEER_SRC_CLUSTER_DFS_H_
