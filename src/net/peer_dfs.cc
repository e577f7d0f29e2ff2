#include "src/net/peer_dfs.h"

#include <algorithm>
#include <utility>

#include "src/base/strings.h"
#include "src/relational/table.h"

namespace musketeer {

std::optional<std::vector<PeerAddress>> ParsePeerList(const std::string& spec) {
  std::vector<PeerAddress> peers;
  for (const std::string& entry : StrSplit(spec, ',')) {
    PeerAddress addr;
    if (!entry.empty() && entry != "-") {
      size_t colon = entry.rfind(':');
      if (colon == std::string::npos || colon == 0) {
        return std::nullopt;
      }
      auto port = ParseInt64(entry.substr(colon + 1));
      if (!port.has_value() || *port < 1 || *port > 65535) {
        return std::nullopt;
      }
      addr.host = entry.substr(0, colon);
      addr.port = static_cast<uint16_t>(*port);
    }
    peers.push_back(std::move(addr));
  }
  return peers;
}

PeerDfs::PeerDfs(int self_shard, int num_shards,
                 std::vector<PeerAddress> peers)
    : self_(self_shard),
      num_shards_(num_shards),
      peers_(std::move(peers)),
      map_(num_shards) {
  conns_.reserve(static_cast<size_t>(num_shards_));
  for (int i = 0; i < num_shards_; ++i) {
    conns_.push_back(std::make_unique<Peer>());
  }
}

template <typename Fn>
auto PeerDfs::WithPeer(int shard, Fn&& op) const
    -> decltype(op(std::declval<NetClient&>())) {
  if (shard < 0 || shard >= num_shards_ || shard == self_ ||
      static_cast<size_t>(shard) >= peers_.size()) {
    return UnavailableError("no peer for shard " + std::to_string(shard));
  }
  if (peers_[static_cast<size_t>(shard)].port == 0) {
    return UnavailableError("no address configured for shard " +
                            std::to_string(shard));
  }
  Peer& peer = *conns_[static_cast<size_t>(shard)];
  std::lock_guard lock(peer.mu);
  if (!peer.client.connected()) {
    const PeerAddress& addr = peers_[static_cast<size_t>(shard)];
    Status connected = peer.client.Connect(addr.host, addr.port);
    if (!connected.ok()) {
      return connected;
    }
  }
  auto result = op(peer.client);
  if (!result.ok()) {
    peer.client.Close();  // force a fresh dial on the next use
  }
  return result;
}

StatusOr<TablePtr> PeerDfs::FetchFrom(int shard,
                                      const std::string& name) const {
  auto fetched = WithPeer(
      shard, [&](NetClient& client) { return client.FetchRelation(name); });
  if (fetched.ok()) {
    remote_fetches_.fetch_add(1, std::memory_order_relaxed);
    AtomicAdd(&remote_bytes_, (*fetched)->nominal_bytes());
  }
  return fetched;
}

void PeerDfs::Put(const std::string& name, TablePtr table) {
  const int owner = map_.OwnerOf(name);
  if (owner == self_) {
    Dfs::Put(name, std::move(table));
    return;
  }
  Status pushed = WithPeer(owner, [&](NetClient& client) {
    return client.PushRelation(name, *table);
  });
  if (pushed.ok()) {
    // The bytes now live on the owner, but this node's fingerprint view must
    // still see the overwrite (the owner bumps its own counter when its
    // server PutLocal lands the relation).
    BumpVersion(name);
    return;
  }
  // Degraded mode: keep the relation locally so the workflow can finish;
  // Get's scan-all fallback lets other shards still find it here.
  push_failures_.fetch_add(1, std::memory_order_relaxed);
  Dfs::Put(name, std::move(table));
}

StatusOr<TablePtr> PeerDfs::Get(const std::string& name) const {
  if (Dfs::Contains(name)) {
    return Dfs::Get(name);
  }
  const int owner = map_.OwnerOf(name);
  auto fetched = FetchFrom(owner, name);
  if (fetched.ok()) {
    return fetched;
  }
  // Owner miss (dead peer, or a degraded Put stranded the relation off its
  // ring home): ask everyone else, mirroring ShardedDfs's
  // scan-all-partitions directory repair.
  for (int shard = 0; shard < num_shards_; ++shard) {
    if (shard == self_ || shard == owner) {
      continue;
    }
    auto scanned = FetchFrom(shard, name);
    if (scanned.ok()) {
      return scanned;
    }
  }
  return NotFoundError("relation '" + name + "' not found on any shard");
}

bool PeerDfs::Contains(const std::string& name) const {
  if (Dfs::Contains(name)) {
    return true;
  }
  const int owner = map_.OwnerOf(name);
  if (owner == self_) {
    return false;  // we are the home and do not hold it
  }
  auto names = WithPeer(
      owner, [](NetClient& client) { return client.ListRelations(); });
  return names.ok() &&
         std::find(names->begin(), names->end(), name) != names->end();
}

std::vector<std::string> PeerDfs::ListRelations() const {
  std::vector<std::string> all = Dfs::ListRelations();
  for (int shard = 0; shard < num_shards_; ++shard) {
    if (shard == self_) {
      continue;
    }
    auto names = WithPeer(
        shard, [](NetClient& client) { return client.ListRelations(); });
    if (names.ok()) {
      all.insert(all.end(), names->begin(), names->end());
    }
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

bool PeerDfs::IsLocal(const std::string& name) const {
  return Dfs::Contains(name) || map_.OwnerOf(name) == self_;
}

}  // namespace musketeer
