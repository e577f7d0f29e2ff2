// Socket-sharded DFS for multi-process deployments (PR 8).
//
// PeerDfs is the storage layer a `musketeer --shard-of=K/M --peers=...`
// process runs on: it owns partition K of an M-way namespace locally (the
// base Dfs store) and resolves every other relation over the network front
// door's relation endpoints (GET/PUT /relation/<name>, src/net/server.h).
// The in-process analogue is ShardViewDfs (src/cluster/sharded_dfs.h); this
// class is its cross-process twin, with real sockets where the view has a
// timed deep copy.
//
// Ownership is HASH-PURE: every process computes OwnerOf(name) from the
// name alone (the consistent-hash ring over M shards), with no pin
// directory and no cross-process pin synchronization — processes agree on
// placement because they run the same hash, not because they talk about it.
// That trades the in-process ShardedDfs's placement-near-data pinning for
// zero metadata traffic; a relation produced on a non-owning shard is pushed
// to its owner at Put time, so reads still find it at the ring-computed
// home.
//
// Degraded mode: when the owning peer is unreachable, Put falls back to
// storing locally and Get falls back to asking every reachable peer —
// mirroring ShardedDfs's scan-all-partitions directory repair. push_failures
// counts the former so operators can see a partitioned cluster.
//
// Thread-safety: the namespace ops inherit the base Dfs locking; the one
// NetClient per peer is serialized by a mutex (cross-shard fetches are the
// slow path — correctness over parallel fetch throughput).

#ifndef MUSKETEER_SRC_NET_PEER_DFS_H_
#define MUSKETEER_SRC_NET_PEER_DFS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/cluster/dfs.h"
#include "src/cluster/shard_map.h"
#include "src/net/client.h"

namespace musketeer {

struct PeerAddress {
  std::string host;
  uint16_t port = 0;
};

// "host:port,host:port,..." → addresses; "-" or "" entries stay port 0
// (a placeholder for this process's own slot). nullopt on malformed specs.
std::optional<std::vector<PeerAddress>> ParsePeerList(const std::string& spec);

class PeerDfs final : public Dfs {
 public:
  // `self_shard` in [0, num_shards); `peers` has one entry per shard (the
  // self entry is ignored). Connections are lazy: nothing is dialed until
  // the first cross-shard operation, so peers can start in any order.
  PeerDfs(int self_shard, int num_shards, std::vector<PeerAddress> peers);
  ~PeerDfs() override = default;

  void Put(const std::string& name, TablePtr table) override;
  StatusOr<TablePtr> Get(const std::string& name) const override;
  bool Contains(const std::string& name) const override;
  // Global namespace: local relations plus every reachable peer's.
  std::vector<std::string> ListRelations() const override;
  bool IsLocal(const std::string& name) const override;

  int self_shard() const { return self_; }
  int num_shards() const { return num_shards_; }
  int OwnerOf(const std::string& name) const { return map_.OwnerOf(name); }

  uint64_t remote_fetches() const {
    return remote_fetches_.load(std::memory_order_relaxed);
  }
  Bytes remote_bytes_fetched() const {
    return remote_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t push_failures() const {
    return push_failures_.load(std::memory_order_relaxed);
  }

 private:
  // Borrow shard `shard`'s connection (dialing it if needed) and run `op`
  // under the per-peer lock. Unreachable peers surface as Unavailable.
  template <typename Fn>
  auto WithPeer(int shard, Fn&& op) const
      -> decltype(op(std::declval<NetClient&>()));

  StatusOr<TablePtr> FetchFrom(int shard, const std::string& name) const;

  const int self_;
  const int num_shards_;
  const std::vector<PeerAddress> peers_;
  ShardMap map_;  // ring-only resolution; never pinned

  struct Peer {
    std::mutex mu;
    NetClient client;  // guarded by mu
  };
  mutable std::vector<std::unique_ptr<Peer>> conns_;

  mutable std::atomic<uint64_t> remote_fetches_{0};
  mutable std::atomic<Bytes> remote_bytes_{0};
  mutable std::atomic<uint64_t> push_failures_{0};
};

}  // namespace musketeer

#endif  // MUSKETEER_SRC_NET_PEER_DFS_H_
