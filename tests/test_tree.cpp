// Tests for TreeMaker (merger trees).
#include <gtest/gtest.h>

#include "halo/halomaker.hpp"
#include "tree/treemaker.hpp"

namespace gc::tree {
namespace {

halo::Halo make_halo(std::uint64_t id, double mass,
                     std::vector<std::uint64_t> members) {
  halo::Halo h;
  h.id = id;
  h.mass = mass;
  h.npart = members.size();
  h.members = std::move(members);
  return h;
}

halo::HaloCatalog make_catalog(double aexp,
                               std::vector<halo::Halo> halos) {
  halo::HaloCatalog catalog;
  catalog.aexp = aexp;
  catalog.box_mpc = 100.0;
  catalog.halos = std::move(halos);
  return catalog;
}

TEST(TreeMaker, SimpleDescendantChain) {
  // One halo tracked over three snapshots by particle overlap.
  std::vector<halo::HaloCatalog> catalogs = {
      make_catalog(0.3, {make_halo(1, 1.0, {1, 2, 3, 4})}),
      make_catalog(0.6, {make_halo(1, 1.2, {1, 2, 3, 4, 5})}),
      make_catalog(1.0, {make_halo(1, 1.5, {1, 2, 3, 4, 5, 6})}),
  };
  const MergerForest forest = build_forest(catalogs);
  ASSERT_EQ(forest.nodes().size(), 3u);
  EXPECT_TRUE(forest.check_invariants());

  const auto roots = forest.roots();
  ASSERT_EQ(roots.size(), 1u);
  const auto branch = forest.main_branch(roots[0]);
  ASSERT_EQ(branch.size(), 3u);
  EXPECT_DOUBLE_EQ(forest.nodes()[static_cast<size_t>(branch[0])].aexp, 1.0);
  EXPECT_DOUBLE_EQ(forest.nodes()[static_cast<size_t>(branch[2])].aexp, 0.3);
  EXPECT_EQ(forest.merger_count(), 0u);
}

TEST(TreeMaker, MergerRecorded) {
  // Two halos at t0 merge into one at t1; the heavier is main progenitor.
  std::vector<halo::HaloCatalog> catalogs = {
      make_catalog(0.5, {make_halo(1, 2.0, {1, 2, 3, 4, 5, 6}),
                         make_halo(2, 1.0, {10, 11, 12})}),
      make_catalog(1.0,
                   {make_halo(1, 3.1, {1, 2, 3, 4, 5, 6, 10, 11, 12, 20})}),
  };
  const MergerForest forest = build_forest(catalogs);
  EXPECT_TRUE(forest.check_invariants());
  EXPECT_EQ(forest.merger_count(), 1u);

  const auto roots = forest.roots();
  ASSERT_EQ(roots.size(), 1u);
  const TreeNode& final_node = forest.nodes()[static_cast<size_t>(roots[0])];
  ASSERT_EQ(final_node.progenitors.size(), 2u);
  const TreeNode& main =
      forest.nodes()[static_cast<size_t>(final_node.main_progenitor)];
  EXPECT_DOUBLE_EQ(main.mass, 2.0);
}

TEST(TreeMaker, SplitPicksLargestOverlap) {
  // A halo whose particles split 70/30 between two descendants follows the
  // 70% part.
  std::vector<std::uint64_t> members;
  for (std::uint64_t i = 1; i <= 10; ++i) members.push_back(i);
  std::vector<halo::HaloCatalog> catalogs = {
      make_catalog(0.5, {make_halo(1, 1.0, members)}),
      make_catalog(1.0, {make_halo(1, 0.9, {1, 2, 3, 4, 5, 6, 7}),
                         make_halo(2, 0.5, {8, 9, 10})}),
  };
  const MergerForest forest = build_forest(catalogs);
  const TreeNode& progenitor = forest.nodes()[0];
  ASSERT_GE(progenitor.descendant, 0);
  const TreeNode& descendant =
      forest.nodes()[static_cast<size_t>(progenitor.descendant)];
  EXPECT_EQ(descendant.halo_id, 1u);
  EXPECT_EQ(descendant.npart, 7u);
}

TEST(TreeMaker, DissolvedHaloHasNoDescendant) {
  std::vector<halo::HaloCatalog> catalogs = {
      make_catalog(0.5, {make_halo(1, 1.0, {1, 2, 3})}),
      make_catalog(1.0, {make_halo(1, 1.0, {50, 51, 52})}),  // disjoint
  };
  const MergerForest forest = build_forest(catalogs);
  EXPECT_EQ(forest.nodes()[0].descendant, -1);
  EXPECT_TRUE(forest.nodes()[1].progenitors.empty());
  EXPECT_TRUE(forest.check_invariants());
}

TEST(TreeMaker, NewbornHaloHasNoProgenitor) {
  std::vector<halo::HaloCatalog> catalogs = {
      make_catalog(0.5, {}),
      make_catalog(1.0, {make_halo(1, 1.0, {1, 2, 3})}),
  };
  const MergerForest forest = build_forest(catalogs);
  ASSERT_EQ(forest.nodes().size(), 1u);
  EXPECT_EQ(forest.nodes()[0].main_progenitor, -1);
  EXPECT_EQ(forest.main_branch(0).size(), 1u);
}

TEST(TreeMaker, EmptyInput) {
  const MergerForest forest = build_forest({});
  EXPECT_TRUE(forest.nodes().empty());
  EXPECT_TRUE(forest.roots().empty());
  EXPECT_TRUE(forest.check_invariants());
}

TEST(TreeMaker, CarriesHaloProperties) {
  halo::Halo h = make_halo(5, 2.5, {1, 2, 3});
  h.x = 0.1;
  h.y = 0.2;
  h.z = 0.3;
  h.vx = 100.0;
  const MergerForest forest = build_forest({make_catalog(0.7, {h})});
  const TreeNode& node = forest.nodes()[0];
  EXPECT_EQ(node.halo_id, 5u);
  EXPECT_DOUBLE_EQ(node.aexp, 0.7);
  EXPECT_DOUBLE_EQ(node.mass, 2.5);
  EXPECT_DOUBLE_EQ(node.x, 0.1);
  EXPECT_DOUBLE_EQ(node.vx, 100.0);
}

TEST(TreeMaker, LongChainWithBranching) {
  // 4 snapshots: two independent halos; they merge at snapshot 2; the
  // merged halo survives to snapshot 3.
  std::vector<halo::HaloCatalog> catalogs = {
      make_catalog(0.25, {make_halo(1, 1.0, {1, 2, 3}),
                          make_halo(2, 0.8, {10, 11, 12})}),
      make_catalog(0.5, {make_halo(1, 1.1, {1, 2, 3, 4}),
                         make_halo(2, 0.9, {10, 11, 12, 13})}),
      make_catalog(0.75,
                   {make_halo(1, 2.2, {1, 2, 3, 4, 10, 11, 12, 13})}),
      make_catalog(1.0,
                   {make_halo(1, 2.3, {1, 2, 3, 4, 10, 11, 12, 13, 14})}),
  };
  const MergerForest forest = build_forest(catalogs);
  EXPECT_TRUE(forest.check_invariants());
  EXPECT_EQ(forest.merger_count(), 1u);
  const auto branch = forest.main_branch(forest.roots()[0]);
  EXPECT_EQ(branch.size(), 4u);  // root -> merged -> heavier -> its t0 self
}

}  // namespace
}  // namespace gc::tree
