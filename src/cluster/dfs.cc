#include "src/cluster/dfs.h"

#include <algorithm>
#include <mutex>

namespace musketeer {

// ---- DfsPartition ----------------------------------------------------------

void DfsPartition::Put(const std::string& name, TablePtr table) {
  std::unique_lock lock(mu_);
  relations_[name] = std::move(table);
}

StatusOr<TablePtr> DfsPartition::Get(const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return NotFoundError("DFS relation '" + name + "' does not exist");
  }
  return it->second;
}

bool DfsPartition::Contains(const std::string& name) const {
  std::shared_lock lock(mu_);
  return relations_.count(name) > 0;
}

void DfsPartition::Erase(const std::string& name) {
  std::unique_lock lock(mu_);
  relations_.erase(name);
}

std::vector<std::string> DfsPartition::ListRelations() const {
  std::vector<std::string> names;
  {
    std::shared_lock lock(mu_);
    names.reserve(relations_.size());
    for (const auto& [name, table] : relations_) {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

size_t DfsPartition::size() const {
  std::shared_lock lock(mu_);
  return relations_.size();
}

// ---- Dfs -------------------------------------------------------------------

void Dfs::Put(const std::string& name, TablePtr table) {
  local_.Put(name, std::move(table));
  BumpVersion(name);
}

uint64_t Dfs::VersionOf(const std::string& name) const {
  std::shared_lock lock(version_mu_);
  auto it = versions_.find(name);
  return it == versions_.end() ? 0 : it->second;
}

void Dfs::BumpVersion(const std::string& name) {
  std::unique_lock lock(version_mu_);
  ++versions_[name];
}

StatusOr<TablePtr> Dfs::Get(const std::string& name) const {
  return local_.Get(name);
}

bool Dfs::Contains(const std::string& name) const {
  return local_.Contains(name);
}

void Dfs::Erase(const std::string& name) { local_.Erase(name); }

std::vector<std::string> Dfs::ListRelations() const {
  return local_.ListRelations();
}

}  // namespace musketeer
