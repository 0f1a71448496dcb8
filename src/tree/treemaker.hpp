// TreeMaker: merger tree construction.
//
// "TreeMaker: given the catalog of halos, TreeMaker builds a merger tree:
// it follows the position, the mass, the velocity of the different
// particules present in the halos through cosmic time" (Section 3).
//
// Halos in consecutive snapshots are linked by shared particle ids: the
// descendant of a halo is the halo in the next catalog holding the
// largest number of its particles. A node may have many progenitors
// (mergers) but one descendant.
#pragma once

#include <cstdint>
#include <vector>

#include "halo/halomaker.hpp"

namespace gc::tree {

struct TreeNode {
  std::int32_t snapshot = 0;   ///< index into the catalog sequence
  std::uint64_t halo_id = 0;   ///< id within that snapshot's catalog
  double aexp = 0.0;
  double mass = 0.0;
  std::size_t npart = 0;
  double x = 0.0, y = 0.0, z = 0.0;
  double vx = 0.0, vy = 0.0, vz = 0.0;

  std::int32_t descendant = -1;       ///< node index, -1 at the final time
  std::int32_t main_progenitor = -1;  ///< heaviest progenitor node
  std::vector<std::int32_t> progenitors;
};

class MergerForest {
 public:
  [[nodiscard]] const std::vector<TreeNode>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<std::vector<std::int32_t>>& by_snapshot()
      const {
    return by_snapshot_;
  }

  /// Final-snapshot nodes (the z ~ 0 halos whose histories the SAM walks).
  [[nodiscard]] std::vector<std::int32_t> roots() const;

  /// Main branch of a node, walking main progenitors back in time
  /// (node itself first).
  [[nodiscard]] std::vector<std::int32_t> main_branch(std::int32_t node) const;

  /// Number of merger events (nodes with >= 2 progenitors).
  [[nodiscard]] std::size_t merger_count() const;

  /// Structural invariants (descendant/progenitor symmetry, time ordering).
  [[nodiscard]] bool check_invariants() const;

 private:
  friend MergerForest build_forest(const std::vector<halo::HaloCatalog>&);
  std::vector<TreeNode> nodes_;
  std::vector<std::vector<std::int32_t>> by_snapshot_;
};

/// Builds the forest from catalogs ordered by increasing aexp.
MergerForest build_forest(const std::vector<halo::HaloCatalog>& catalogs);

}  // namespace gc::tree
