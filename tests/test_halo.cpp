// Tests for HaloMaker (friends-of-friends).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <set>

#include "common/rng.hpp"
#include "halo/halomaker.hpp"
#include "halo/overdensity.hpp"
#include "parallel/pool.hpp"

namespace gc::halo {
namespace {

/// Owns the particle arrays a ParticleView points into.
struct Particles {
  std::vector<double> x, y, z, vx, vy, vz, mass;
  std::vector<std::uint64_t> id;

  void add(double px, double py, double pz, double vvx = 0, double vvy = 0,
           double vvz = 0, double m = 1e-5) {
    x.push_back(px - std::floor(px));
    y.push_back(py - std::floor(py));
    z.push_back(pz - std::floor(pz));
    vx.push_back(vvx);
    vy.push_back(vvy);
    vz.push_back(vvz);
    mass.push_back(m);
    id.push_back(id.size() + 1);
  }

  [[nodiscard]] ParticleView view() const {
    return ParticleView{&x, &y, &z, &vx, &vy, &vz, &mass, &id};
  }

  void blob(Rng& rng, double cx, double cy, double cz, int count,
            double sigma, double vmean = 0.0) {
    for (int i = 0; i < count; ++i) {
      add(cx + rng.normal(0, sigma), cy + rng.normal(0, sigma),
          cz + rng.normal(0, sigma), vmean + rng.normal(0, 50),
          rng.normal(0, 50), rng.normal(0, 50));
    }
  }
};

TEST(HaloMaker, EmptyInput) {
  Particles p;
  const HaloCatalog catalog = find_halos(p.view(), 1.0, 100.0);
  EXPECT_TRUE(catalog.halos.empty());
  EXPECT_EQ(catalog.total_particles, 0u);
}

TEST(HaloMaker, TwoSeparatedClusters) {
  Rng rng(1);
  Particles p;
  p.blob(rng, 0.25, 0.25, 0.25, 300, 0.004, 100.0);
  p.blob(rng, 0.75, 0.75, 0.75, 150, 0.004, -100.0);
  // Sparse background that must NOT form halos.
  for (int i = 0; i < 50; ++i) {
    p.add(rng.uniform(), rng.uniform(), rng.uniform());
  }

  const HaloCatalog catalog =
      find_halos(p.view(), 1.0, 100.0, FofOptions{0.2, 20});
  ASSERT_EQ(catalog.halos.size(), 2u);
  // Sorted by mass, heaviest first, ids renumbered.
  EXPECT_EQ(catalog.halos[0].id, 1u);
  EXPECT_GE(catalog.halos[0].npart, 290u);
  EXPECT_GE(catalog.halos[1].npart, 140u);
  EXPECT_GT(catalog.halos[0].mass, catalog.halos[1].mass);
  // Centres recovered.
  EXPECT_NEAR(catalog.halos[0].x, 0.25, 0.01);
  EXPECT_NEAR(catalog.halos[1].z, 0.75, 0.01);
  // Bulk velocities recovered.
  EXPECT_NEAR(catalog.halos[0].vx, 100.0, 15.0);
  EXPECT_NEAR(catalog.halos[1].vx, -100.0, 15.0);
  EXPECT_GT(catalog.halos[0].sigma_v, 10.0);
  EXPECT_GT(catalog.halos[0].r_rms, 0.0);
}

TEST(HaloMaker, MinNpartFilters) {
  Rng rng(2);
  Particles p;
  p.blob(rng, 0.5, 0.5, 0.5, 19, 0.002);
  const HaloCatalog strict =
      find_halos(p.view(), 1.0, 100.0, FofOptions{0.2, 20});
  EXPECT_TRUE(strict.halos.empty());
  const HaloCatalog loose =
      find_halos(p.view(), 1.0, 100.0, FofOptions{0.2, 10});
  EXPECT_EQ(loose.halos.size(), 1u);
}

TEST(HaloMaker, PeriodicBoundaryHalo) {
  // A cluster straddling the box corner must come out as ONE halo with a
  // correctly wrapped centre.
  Rng rng(3);
  Particles p;
  for (int i = 0; i < 200; ++i) {
    p.add(0.001 + rng.normal(0, 0.003), 0.999 + rng.normal(0, 0.003),
          rng.normal(0, 0.003));
  }
  const HaloCatalog catalog =
      find_halos(p.view(), 1.0, 100.0, FofOptions{0.25, 20});
  ASSERT_EQ(catalog.halos.size(), 1u);
  EXPECT_EQ(catalog.halos[0].npart, 200u);
  // Centre near the corner, wrapped into [0,1).
  const double cx = catalog.halos[0].x;
  const double cy = catalog.halos[0].y;
  EXPECT_TRUE(cx < 0.02 || cx > 0.98) << cx;
  EXPECT_TRUE(cy < 0.02 || cy > 0.98) << cy;
}

TEST(HaloMaker, LinkingLengthControlsMerging) {
  // Two blobs 0.05 apart: tight linking separates them, loose merges.
  Rng rng(4);
  Particles p;
  p.blob(rng, 0.45, 0.5, 0.5, 200, 0.002);
  p.blob(rng, 0.50, 0.5, 0.5, 200, 0.002);
  const HaloCatalog tight =
      find_halos(p.view(), 1.0, 100.0, FofOptions{0.15, 20});
  const HaloCatalog loose =
      find_halos(p.view(), 1.0, 100.0, FofOptions{1.2, 20});
  EXPECT_EQ(tight.halos.size(), 2u);
  EXPECT_EQ(loose.halos.size(), 1u);
  EXPECT_EQ(loose.halos[0].npart, 400u);
}

TEST(HaloMaker, MembersCarryParticleIds) {
  Rng rng(5);
  Particles p;
  p.blob(rng, 0.3, 0.3, 0.3, 100, 0.003);
  const HaloCatalog catalog =
      find_halos(p.view(), 1.0, 100.0, FofOptions{0.2, 20});
  ASSERT_EQ(catalog.halos.size(), 1u);
  ASSERT_EQ(catalog.halos[0].members.size(), 100u);
  std::vector<std::uint64_t> members = catalog.halos[0].members;
  std::sort(members.begin(), members.end());
  EXPECT_EQ(members.front(), 1u);
  EXPECT_EQ(members.back(), 100u);
}

TEST(HaloMaker, InvariantUnderParticleOrder) {
  Rng rng(6);
  Particles p;
  p.blob(rng, 0.2, 0.6, 0.4, 120, 0.003);
  p.blob(rng, 0.7, 0.2, 0.8, 80, 0.003);
  const HaloCatalog forward =
      find_halos(p.view(), 1.0, 100.0, FofOptions{0.2, 20});

  // Reverse the particle order (keeping ids).
  Particles reversed;
  for (std::size_t i = p.x.size(); i-- > 0;) {
    reversed.x.push_back(p.x[i]);
    reversed.y.push_back(p.y[i]);
    reversed.z.push_back(p.z[i]);
    reversed.vx.push_back(p.vx[i]);
    reversed.vy.push_back(p.vy[i]);
    reversed.vz.push_back(p.vz[i]);
    reversed.mass.push_back(p.mass[i]);
    reversed.id.push_back(p.id[i]);
  }
  const HaloCatalog backward =
      find_halos(reversed.view(), 1.0, 100.0, FofOptions{0.2, 20});

  ASSERT_EQ(forward.halos.size(), backward.halos.size());
  for (std::size_t h = 0; h < forward.halos.size(); ++h) {
    EXPECT_EQ(forward.halos[h].npart, backward.halos[h].npart);
    EXPECT_NEAR(forward.halos[h].mass, backward.halos[h].mass, 1e-12);
    auto a = forward.halos[h].members;
    auto b = backward.halos[h].members;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
  }
}

TEST(HaloMaker, CatalogIoRoundtrip) {
  Rng rng(7);
  Particles p;
  p.blob(rng, 0.4, 0.4, 0.4, 60, 0.003);
  HaloCatalog catalog = find_halos(p.view(), 0.5, 100.0, FofOptions{0.2, 20});
  ASSERT_EQ(catalog.halos.size(), 1u);

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("gc_halo_" + std::to_string(::getpid()) + ".bin"))
          .string();
  ASSERT_TRUE(write_catalog(path, catalog).is_ok());
  auto back = read_catalog(path);
  ASSERT_TRUE(back.is_ok());
  EXPECT_DOUBLE_EQ(back.value().aexp, 0.5);
  EXPECT_DOUBLE_EQ(back.value().box_mpc, 100.0);
  ASSERT_EQ(back.value().halos.size(), 1u);
  const Halo& original = catalog.halos[0];
  const Halo& loaded = back.value().halos[0];
  EXPECT_EQ(loaded.id, original.id);
  EXPECT_EQ(loaded.npart, original.npart);
  EXPECT_DOUBLE_EQ(loaded.mass, original.mass);
  EXPECT_DOUBLE_EQ(loaded.x, original.x);
  EXPECT_DOUBLE_EQ(loaded.sigma_v, original.sigma_v);
  EXPECT_EQ(loaded.members, original.members);
  std::filesystem::remove(path);
}

TEST(HaloMaker, TextCatalogHasRows) {
  Rng rng(8);
  Particles p;
  p.blob(rng, 0.5, 0.5, 0.5, 50, 0.003);
  const HaloCatalog catalog =
      find_halos(p.view(), 1.0, 100.0, FofOptions{0.2, 20});
  const std::string text = catalog_to_text(catalog);
  EXPECT_NE(text.find("nhalos=1"), std::string::npos);
  // Two header lines + one row.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

TEST(Overdensity, RecoversCompactClusterMass) {
  // Half the box mass in a tight ball at (0.5,0.5,0.5), the rest diffuse:
  // R200 encloses (almost exactly) the ball.
  Rng rng(21);
  Particles p;
  const int cluster_n = 2000;
  const int background_n = 2000;
  const double mass = 1.0 / (cluster_n + background_n);
  for (int i = 0; i < cluster_n; ++i) {
    // Uniform ball of radius 0.02 via rejection.
    double x, y, z;
    do {
      x = rng.uniform(-0.02, 0.02);
      y = rng.uniform(-0.02, 0.02);
      z = rng.uniform(-0.02, 0.02);
    } while (x * x + y * y + z * z > 0.02 * 0.02);
    p.add(0.5 + x, 0.5 + y, 0.5 + z, 0, 0, 0, mass);
  }
  for (int i = 0; i < background_n; ++i) {
    p.add(rng.uniform(), rng.uniform(), rng.uniform(), 0, 0, 0, mass);
  }

  const SoProperties so =
      spherical_overdensity(p.view(), 0.5, 0.5, 0.5, 200.0);
  // Analytic: M(R200) ~ 0.5 (the ball), R200 = (3*0.5/(4 pi 200))^(1/3).
  const double expected_r = std::cbrt(3.0 * 0.5 / (4.0 * M_PI * 200.0));
  EXPECT_NEAR(so.mass, 0.5, 0.03);
  EXPECT_NEAR(so.radius, expected_r, expected_r * 0.1);
  EXPECT_GE(so.npart, 1900u);
}

TEST(Overdensity, EmptyRegionGivesZero) {
  Rng rng(22);
  Particles p;
  for (int i = 0; i < 500; ++i) {
    p.add(rng.uniform(), rng.uniform(), rng.uniform());
  }
  // Uniform box at mean density 1 << 200: no SO halo anywhere.
  const SoProperties so =
      spherical_overdensity(p.view(), 0.5, 0.5, 0.5, 200.0);
  EXPECT_DOUBLE_EQ(so.mass, 0.0);
  EXPECT_DOUBLE_EQ(so.radius, 0.0);
}

TEST(Overdensity, HigherThresholdGivesSmallerRadius) {
  Rng rng(23);
  Particles p;
  // Centrally concentrated cluster (gaussian, sigma wide enough that the
  // outskirts drop below both thresholds) so density falls outward.
  for (int i = 0; i < 3000; ++i) {
    p.add(0.5 + rng.normal(0, 0.03), 0.5 + rng.normal(0, 0.03),
          0.5 + rng.normal(0, 0.03), 0, 0, 0, 1.0 / 3000);
  }
  const SoProperties m200 =
      spherical_overdensity(p.view(), 0.5, 0.5, 0.5, 200.0);
  const SoProperties m500 =
      spherical_overdensity(p.view(), 0.5, 0.5, 0.5, 500.0);
  EXPECT_GT(m200.radius, m500.radius);
  EXPECT_GT(m200.mass, m500.mass);
  EXPECT_GT(m500.mass, 0.0);
}

TEST(Overdensity, PerCatalogHelper) {
  Rng rng(24);
  Particles p;
  p.blob(rng, 0.3, 0.3, 0.3, 500, 0.002);
  p.blob(rng, 0.7, 0.7, 0.7, 300, 0.002);
  const HaloCatalog catalog =
      find_halos(p.view(), 1.0, 100.0, FofOptions{0.2, 20});
  ASSERT_EQ(catalog.halos.size(), 2u);
  const auto so = so_properties(p.view(), catalog, 200.0);
  ASSERT_EQ(so.size(), 2u);
  EXPECT_GT(so[0].mass, so[1].mass);  // ordering follows the FoF masses
  EXPECT_GT(so[0].npart, 0u);
}

TEST(HaloMaker, ScalesToManyParticles) {
  // Smoke: 30k particles with structure finish quickly and find halos.
  Rng rng(9);
  Particles p;
  for (int blob = 0; blob < 10; ++blob) {
    p.blob(rng, rng.uniform(), rng.uniform(), rng.uniform(), 500, 0.004);
  }
  for (int i = 0; i < 25000; ++i) {
    p.add(rng.uniform(), rng.uniform(), rng.uniform());
  }
  const HaloCatalog catalog =
      find_halos(p.view(), 1.0, 100.0, FofOptions{0.12, 50});
  EXPECT_GE(catalog.halos.size(), 8u);
  EXPECT_LE(catalog.halos.size(), 12u);
}

// ---------- brute-force oracle ----------

double reference_delta(double a, double b) {
  double d = a - b;
  if (d > 0.5) d -= 1.0;
  if (d < -0.5) d += 1.0;
  return d;
}

/// FoF with no cell table: an O(n^2) union over every periodic pair within
/// the linking length, then the catalog fields computed member by member in
/// ascending particle order, groups numbered by their lowest member.
HaloCatalog reference_find_halos(const Particles& p,
                                 const FofOptions& options) {
  const std::size_t n = p.x.size();
  HaloCatalog catalog;
  catalog.aexp = 1.0;
  catalog.box_mpc = 100.0;
  catalog.total_particles = n;
  if (n == 0) return catalog;
  const double ll = options.linking_factor / std::cbrt(static_cast<double>(n));
  std::vector<std::size_t> parent(n);
  for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  auto find = [&](std::size_t v) {
    while (parent[v] != v) v = parent[v];
    return v;
  };
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      const double dx = reference_delta(p.x[a], p.x[b]);
      const double dy = reference_delta(p.y[a], p.y[b]);
      const double dz = reference_delta(p.z[a], p.z[b]);
      if (dx * dx + dy * dy + dz * dz <= ll * ll) parent[find(a)] = find(b);
    }
  }
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::size_t> group_of(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = find(i);
    if (group_of[root] == n) {
      group_of[root] = groups.size();
      groups.emplace_back();
    }
    groups[group_of[root]].push_back(i);
  }
  for (const auto& members : groups) {
    if (members.size() < options.min_npart) continue;
    Halo h;
    h.npart = members.size();
    const std::size_t first = members[0];
    double cx = 0.0, cy = 0.0, cz = 0.0;
    for (const std::size_t i : members) {
      h.mass += p.mass[i];
      cx += p.mass[i] * reference_delta(p.x[i], p.x[first]);
      cy += p.mass[i] * reference_delta(p.y[i], p.y[first]);
      cz += p.mass[i] * reference_delta(p.z[i], p.z[first]);
      h.vx += p.mass[i] * p.vx[i];
      h.vy += p.mass[i] * p.vy[i];
      h.vz += p.mass[i] * p.vz[i];
    }
    auto wrap = [](double v) { return v - std::floor(v); };
    h.x = wrap(p.x[first] + cx / h.mass);
    h.y = wrap(p.y[first] + cy / h.mass);
    h.z = wrap(p.z[first] + cz / h.mass);
    h.vx /= h.mass;
    h.vy /= h.mass;
    h.vz /= h.mass;
    double r2 = 0.0, v2 = 0.0;
    for (const std::size_t i : members) {
      const double dx = reference_delta(p.x[i], h.x);
      const double dy = reference_delta(p.y[i], h.y);
      const double dz = reference_delta(p.z[i], h.z);
      r2 += dx * dx + dy * dy + dz * dz;
      const double ux = p.vx[i] - h.vx;
      const double uy = p.vy[i] - h.vy;
      const double uz = p.vz[i] - h.vz;
      v2 += ux * ux + uy * uy + uz * uz;
    }
    h.r_rms = std::sqrt(r2 / static_cast<double>(h.npart));
    h.sigma_v = std::sqrt(v2 / (3.0 * static_cast<double>(h.npart)));
    for (const std::size_t i : members) h.members.push_back(p.id[i]);
    catalog.halos.push_back(std::move(h));
  }
  std::sort(catalog.halos.begin(), catalog.halos.end(),
            [](const Halo& a, const Halo& b) { return a.mass > b.mass; });
  for (std::size_t i = 0; i < catalog.halos.size(); ++i) {
    catalog.halos[i].id = i + 1;
  }
  return catalog;
}

void expect_same_catalog(const HaloCatalog& got, const HaloCatalog& want,
                         const std::string& what) {
  EXPECT_EQ(got.total_particles, want.total_particles) << what;
  ASSERT_EQ(got.halos.size(), want.halos.size()) << what;
  for (std::size_t h = 0; h < got.halos.size(); ++h) {
    const Halo& a = got.halos[h];
    const Halo& b = want.halos[h];
    EXPECT_EQ(a.id, b.id) << what << " halo " << h;
    EXPECT_EQ(a.npart, b.npart) << what << " halo " << h;
    EXPECT_EQ(a.mass, b.mass) << what << " halo " << h;
    EXPECT_EQ(a.x, b.x) << what << " halo " << h;
    EXPECT_EQ(a.y, b.y) << what << " halo " << h;
    EXPECT_EQ(a.z, b.z) << what << " halo " << h;
    EXPECT_EQ(a.vx, b.vx) << what << " halo " << h;
    EXPECT_EQ(a.vy, b.vy) << what << " halo " << h;
    EXPECT_EQ(a.vz, b.vz) << what << " halo " << h;
    EXPECT_EQ(a.r_rms, b.r_rms) << what << " halo " << h;
    EXPECT_EQ(a.sigma_v, b.sigma_v) << what << " halo " << h;
    EXPECT_EQ(a.members, b.members) << what << " halo " << h;
  }
}

/// find_halos at 1 and 4 threads against the oracle's catalog.
void expect_matches_reference(const Particles& p, const FofOptions& options,
                              const HaloCatalog& want) {
  for (const std::size_t threads : {1, 4}) {
    parallel::set_thread_count(threads);
    expect_same_catalog(find_halos(p.view(), 1.0, 100.0, options), want,
                        "threads=" + std::to_string(threads));
  }
  parallel::set_thread_count(0);
}

TEST(FofOracle, ClumpAcrossPeriodicFaceOverUniformBackground) {
  Rng rng(11);
  Particles p;
  for (int i = 0; i < 600; ++i) {
    p.add(rng.uniform(), rng.uniform(), rng.uniform());
  }
  p.blob(rng, 0.999, 0.4, 0.6, 400, 0.01, 80.0);
  const FofOptions options{0.2, 5};
  const HaloCatalog want = reference_find_halos(p, options);
  ASSERT_GE(want.halos.size(), 1u);
  EXPECT_GE(want.halos[0].npart, 300u);  // the clump, merged across x = 0
  expect_matches_reference(p, options, want);
}

TEST(FofOracle, GroupAcrossThePeriodicCornerKeepsItsMembers) {
  // A clump on the corner where all three faces meet, so its friends sit
  // in cells 0 and ncell - 1 of every axis and each link across a face
  // goes through the stencil's periodic wrap. The linking factors give 10,
  // 20, 60 and 121 cells a side.
  for (const double b : {1.2, 0.6, 0.2, 0.1}) {
    Rng rng(15);
    Particles p;
    for (int i = 0; i < 1500; ++i) {
      p.add(rng.uniform(), rng.uniform(), rng.uniform());
    }
    p.blob(rng, 0.0, 1.0, 0.0, 300, 0.004);
    const FofOptions options{b, 20};
    const HaloCatalog want = reference_find_halos(p, options);
    ASSERT_GE(want.halos.size(), 1u);
    const Halo& clump = want.halos[0];
    std::set<int> octants;
    for (const std::uint64_t id : clump.members) {
      const std::size_t i = id - 1;
      octants.insert((p.x[i] < 0.5) * 4 + (p.y[i] < 0.5) * 2 + (p.z[i] < 0.5));
    }
    EXPECT_EQ(octants.size(), 8u) << "b=" << b;  // spans every face
    for (const std::size_t threads : {1, 4}) {
      parallel::set_thread_count(threads);
      expect_same_catalog(find_halos(p.view(), 1.0, 100.0, options), want,
                          "b=" + std::to_string(b) +
                              " threads=" + std::to_string(threads));
    }
  }
  parallel::set_thread_count(0);
}

TEST(FofOracle, UniformNearPercolation) {
  // b = 0.7 on uniform points sits just below the percolation threshold:
  // many groups of every size, each of which a single missed or spurious
  // pair would change.
  Rng rng(12);
  Particles p;
  for (int i = 0; i < 3000; ++i) {
    p.add(rng.uniform(), rng.uniform(), rng.uniform());
  }
  const FofOptions options{0.7, 1};
  const HaloCatalog want = reference_find_halos(p, options);
  EXPECT_GT(want.halos.size(), 100u);
  EXPECT_GT(want.halos[0].npart, 20u);
  expect_matches_reference(p, options, want);
}

TEST(FofOracle, TinyInputsWithAliasedStencil) {
  // b = 1.2 makes the cell table 1 or 2 cells a side for n <= 30, where
  // the half stencil's offsets alias onto the same cells.
  for (int n = 1; n <= 30; ++n) {
    Rng rng(static_cast<std::uint64_t>(100 + n));
    Particles p;
    for (int i = 0; i < n; ++i) {
      p.add(rng.uniform(), rng.uniform(), rng.uniform());
    }
    const FofOptions options{1.2, 1};
    expect_same_catalog(find_halos(p.view(), 1.0, 100.0, options),
                        reference_find_halos(p, options),
                        "n=" + std::to_string(n));
  }
}

TEST(FofOracle, ClusteredZoomLikeInputOccupiesUnderOnePercentOfCells) {
  // A zoom snapshot: dense clumps in a sparse box. At n = 4000 the cell
  // side makes ncell = 79, and the clumps touch far fewer than 1% of the
  // 79^3 cells — the case the occupied-cell table is for.
  Rng rng(13);
  Particles p;
  for (int clump = 0; clump < 12; ++clump) {
    p.blob(rng, rng.uniform(), rng.uniform(), rng.uniform(), 300, 0.006);
  }
  for (int i = 0; i < 400; ++i) {
    p.add(rng.uniform(), rng.uniform(), rng.uniform());
  }
  const FofOptions options{0.2, 8};
  const double ll = options.linking_factor / std::cbrt(static_cast<double>(p.x.size()));
  const auto ncell = static_cast<std::size_t>(1.0 / ll);
  ASSERT_LT(ncell, 256u);
  std::set<std::size_t> occupied;
  for (std::size_t i = 0; i < p.x.size(); ++i) {
    auto at = [&](double v) {
      return std::min(static_cast<std::size_t>(v * static_cast<double>(ncell)),
                      ncell - 1);
    };
    occupied.insert((at(p.x[i]) * ncell + at(p.y[i])) * ncell + at(p.z[i]));
  }
  EXPECT_LT(static_cast<double>(occupied.size()),
            0.01 * static_cast<double>(ncell * ncell * ncell));
  const HaloCatalog want = reference_find_halos(p, options);
  EXPECT_GE(want.halos.size(), 10u);
  expect_matches_reference(p, options, want);
}

TEST(FofOracle, LinkingLengthBelowTheCellCap) {
  // b = 0.05 at n = 3000 asks for 288 cells a side; the table stops at
  // 256, so cells are wider than the linking length and the stencil must
  // still find every pair.
  Rng rng(14);
  Particles p;
  for (int clump = 0; clump < 20; ++clump) {
    p.blob(rng, rng.uniform(), rng.uniform(), rng.uniform(), 100, 0.0015);
  }
  for (int i = 0; i < 1000; ++i) {
    p.add(rng.uniform(), rng.uniform(), rng.uniform());
  }
  const FofOptions options{0.05, 5};
  const double ll = options.linking_factor / std::cbrt(static_cast<double>(p.x.size()));
  ASSERT_GT(1.0 / ll, 256.0);
  const HaloCatalog want = reference_find_halos(p, options);
  EXPECT_GE(want.halos.size(), 10u);
  expect_matches_reference(p, options, want);
}

/// The linking length and cell table find_halos uses for n particles at
/// linking factor b.
struct CellGeometry {
  double ll;
  std::size_t ncell;
  double w;
  CellGeometry(std::size_t n, double b)
      : ll(b / std::cbrt(static_cast<double>(n))),
        ncell(std::min<std::size_t>(256, static_cast<std::size_t>(1.0 / ll))),
        w(1.0 / static_cast<double>(ncell)) {}
  /// Low face of cell i, and the centre of the middle cell.
  [[nodiscard]] double face(std::size_t i) const {
    return static_cast<double>(i) * w;
  }
  [[nodiscard]] double middle() const { return face(ncell / 2) + 0.5 * w; }
};

/// `count` particles uniform in the cube of half-side r around a point.
void add_ball(Particles& p, Rng& rng, double cx, double cy, double cz,
              int count, double r) {
  for (int i = 0; i < count; ++i) {
    p.add(cx + rng.uniform(-r, r), cy + rng.uniform(-r, r),
          cz + rng.uniform(-r, r));
  }
}

TEST(FofOracle, JoinedCellsBridgedByOnePairAcrossAFace) {
  // Two balls, each with a bridge particle, fill two joined cells that
  // share an x face. Only the two bridge particles are friends across the
  // face, so the pair of cells links at one pair and nowhere else.
  const FofOptions options{0.2, 5};
  const CellGeometry g(402, options.linking_factor);
  const double face = g.face(g.ncell / 2);
  const double yc = g.middle();
  Rng rng(16);
  Particles p;
  add_ball(p, rng, face - 0.9 * g.ll, yc, yc, 200, 0.01 * g.ll);
  p.add(face - 0.2 * g.ll, yc, yc);
  p.add(face + 0.2 * g.ll, yc, yc);
  add_ball(p, rng, face + 0.9 * g.ll, yc, yc, 200, 0.01 * g.ll);
  ASSERT_EQ(p.x.size(), 402u);
  const HaloCatalog want = reference_find_halos(p, options);
  ASSERT_EQ(want.halos.size(), 1u);
  EXPECT_EQ(want.halos[0].npart, 402u);  // joined through the bridge
  expect_matches_reference(p, options, want);
}

TEST(FofOracle, JoinedCellNextToASparseCell) {
  // A ball fills one joined cell. In the sparse cells on either side of
  // it, two members at opposite corners lie within the linking length of
  // the ball but not of each other, and a third lies just outside it, so
  // every sparse cell holds three components after its own pairs. The
  // ball's cell is the home cell on one side and the neighbour on the
  // other.
  const FofOptions options{0.2, 1};
  const CellGeometry g(106, options.linking_factor);
  const double yc = g.middle();
  const double r = 0.005 * g.ll;
  Rng rng(17);
  Particles p;
  for (const double side : {1.0, -1.0}) {
    const double face = g.face(side > 0 ? g.ncell / 4 : 3 * g.ncell / 4);
    add_ball(p, rng, face - side * 0.1 * g.ll, yc, yc, 50, r);
    for (const double corner : {0.45, -0.45}) {
      p.add(face + side * 0.05 * g.ll, yc + corner * g.w, yc + corner * g.w);
    }
    p.add(face + side * (0.9 * g.ll + r + 0.002 * g.ll), yc, yc);
  }
  ASSERT_EQ(p.x.size(), 106u);
  const HaloCatalog want = reference_find_halos(p, options);
  ASSERT_EQ(want.halos.size(), 4u);
  EXPECT_EQ(want.halos[0].npart, 52u);  // ball + both corners
  EXPECT_EQ(want.halos[1].npart, 52u);
  EXPECT_EQ(want.halos[2].npart, 1u);  // the member just outside
  EXPECT_EQ(want.halos[3].npart, 1u);
  expect_matches_reference(p, options, want);
}

TEST(FofOracle, JoinedCellsMeetAcrossThePeriodicWrap) {
  // As the face bridge, but across x = 0 between cells ncell - 1 and 0,
  // plus a ball on the y = 0 face that fills joined cells on both sides
  // of the wrap, whose pairs of cells share a root before they are swept.
  const FofOptions options{0.6, 5};
  const CellGeometry g(602, options.linking_factor);
  ASSERT_GE(g.ncell, 5u);
  const double yc = g.middle();
  Rng rng(18);
  Particles p;
  add_ball(p, rng, 1.0 - 0.9 * g.ll, yc, yc, 200, 0.01 * g.ll);
  p.add(1.0 - 0.2 * g.ll, yc, yc);
  p.add(0.2 * g.ll, yc, yc);
  add_ball(p, rng, 0.9 * g.ll, yc, yc, 200, 0.01 * g.ll);
  add_ball(p, rng, 0.5, 0.0, 0.5, 200, 0.5 * g.w);
  ASSERT_EQ(p.x.size(), 602u);
  const HaloCatalog want = reference_find_halos(p, options);
  ASSERT_EQ(want.halos.size(), 2u);
  EXPECT_EQ(want.halos[0].npart, 402u);  // joined through the wrap
  EXPECT_EQ(want.halos[1].npart, 200u);
  expect_matches_reference(p, options, want);
}

}  // namespace
}  // namespace gc::halo
