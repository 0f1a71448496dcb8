#include "tree/treemaker.hpp"

#include <algorithm>
#include <unordered_map>

namespace gc::tree {

std::vector<std::int32_t> MergerForest::roots() const {
  if (by_snapshot_.empty()) return {};
  return by_snapshot_.back();
}

std::vector<std::int32_t> MergerForest::main_branch(std::int32_t node) const {
  std::vector<std::int32_t> branch;
  while (node >= 0) {
    branch.push_back(node);
    node = nodes_[static_cast<std::size_t>(node)].main_progenitor;
  }
  return branch;
}

std::size_t MergerForest::merger_count() const {
  std::size_t count = 0;
  for (const TreeNode& node : nodes_) {
    if (node.progenitors.size() >= 2) ++count;
  }
  return count;
}

bool MergerForest::check_invariants() const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const TreeNode& node = nodes_[i];
    if (node.descendant >= 0) {
      const TreeNode& desc = nodes_[static_cast<std::size_t>(node.descendant)];
      if (desc.snapshot != node.snapshot + 1) return false;
      const auto& progs = desc.progenitors;
      if (std::find(progs.begin(), progs.end(),
                    static_cast<std::int32_t>(i)) == progs.end()) {
        return false;
      }
    }
    if (node.main_progenitor >= 0) {
      const auto& progs = node.progenitors;
      if (std::find(progs.begin(), progs.end(), node.main_progenitor) ==
          progs.end()) {
        return false;
      }
    } else if (!node.progenitors.empty()) {
      return false;
    }
    for (const std::int32_t p : node.progenitors) {
      if (nodes_[static_cast<std::size_t>(p)].descendant !=
          static_cast<std::int32_t>(i)) {
        return false;
      }
    }
  }
  return true;
}

MergerForest build_forest(const std::vector<halo::HaloCatalog>& catalogs) {
  MergerForest forest;
  forest.by_snapshot_.resize(catalogs.size());

  // Create nodes.
  for (std::size_t s = 0; s < catalogs.size(); ++s) {
    for (const halo::Halo& halo : catalogs[s].halos) {
      TreeNode node;
      node.snapshot = static_cast<std::int32_t>(s);
      node.halo_id = halo.id;
      node.aexp = catalogs[s].aexp;
      node.mass = halo.mass;
      node.npart = halo.npart;
      node.x = halo.x;
      node.y = halo.y;
      node.z = halo.z;
      node.vx = halo.vx;
      node.vy = halo.vy;
      node.vz = halo.vz;
      forest.by_snapshot_[s].push_back(
          static_cast<std::int32_t>(forest.nodes_.size()));
      forest.nodes_.push_back(std::move(node));
    }
  }

  // Link consecutive snapshots by shared particle ids.
  for (std::size_t s = 0; s + 1 < catalogs.size(); ++s) {
    // particle id -> halo index (within snapshot s+1).
    std::unordered_map<std::uint64_t, std::size_t> owner;
    for (std::size_t h = 0; h < catalogs[s + 1].halos.size(); ++h) {
      for (const std::uint64_t pid : catalogs[s + 1].halos[h].members) {
        owner[pid] = h;
      }
    }
    for (std::size_t h = 0; h < catalogs[s].halos.size(); ++h) {
      const halo::Halo& halo = catalogs[s].halos[h];
      std::unordered_map<std::size_t, std::size_t> votes;
      for (const std::uint64_t pid : halo.members) {
        auto it = owner.find(pid);
        if (it != owner.end()) votes[it->second] += 1;
      }
      if (votes.empty()) continue;  // halo dissolved
      std::size_t best = 0;
      std::size_t best_votes = 0;
      for (const auto& [candidate, count] : votes) {
        if (count > best_votes ||
            (count == best_votes && candidate < best)) {
          best = candidate;
          best_votes = count;
        }
      }
      const std::int32_t from = forest.by_snapshot_[s][h];
      const std::int32_t to = forest.by_snapshot_[s + 1][best];
      forest.nodes_[static_cast<std::size_t>(from)].descendant = to;
      forest.nodes_[static_cast<std::size_t>(to)].progenitors.push_back(from);
    }
  }

  // Main progenitor = heaviest.
  for (TreeNode& node : forest.nodes_) {
    double best_mass = -1.0;
    for (const std::int32_t p : node.progenitors) {
      const double m = forest.nodes_[static_cast<std::size_t>(p)].mass;
      if (m > best_mass) {
        best_mass = m;
        node.main_progenitor = p;
      }
    }
  }
  return forest;
}

}  // namespace gc::tree
