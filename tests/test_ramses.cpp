// Tests for the RAMSES-style N-body stack: PM gravity, leapfrog, AMR,
// domain decomposition, snapshots, driver.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <numeric>

#include "cosmo/cosmology.hpp"
#include "ramses/amr.hpp"
#include "ramses/domain.hpp"
#include "ramses/loader.hpp"
#include "ramses/pm.hpp"
#include "ramses/simulation.hpp"
#include "ramses/snapshot.hpp"

namespace gc::ramses {
namespace {

ParticleSet uniform_lattice(int n) {
  ParticleSet particles;
  const double mass = 1.0 / (static_cast<double>(n) * n * n);
  std::uint64_t id = 1;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      for (int k = 0; k < n; ++k) {
        particles.push_back((i + 0.5) / n, (j + 0.5) / n, (k + 0.5) / n, 0.0,
                            0.0, 0.0, mass, id++, 0);
      }
    }
  }
  return particles;
}

// ---------- particles ----------

TEST(Particles, WrapPositions) {
  ParticleSet particles;
  particles.push_back(0.5, 0.5, 0.5, 0, 0, 0, 1.0, 1, 0);
  particles.x[0] = 1.25;
  particles.y[0] = -0.25;
  particles.z[0] = 3.0;
  particles.wrap_positions();
  EXPECT_DOUBLE_EQ(particles.x[0], 0.25);
  EXPECT_DOUBLE_EQ(particles.y[0], 0.75);
  EXPECT_DOUBLE_EQ(particles.z[0], 0.0);
  EXPECT_TRUE(particles.valid());
}

TEST(Particles, ValidCatchesBadState) {
  ParticleSet particles;
  particles.push_back(0.5, 0.5, 0.5, 0, 0, 0, 1.0, 1, 0);
  EXPECT_TRUE(particles.valid());
  particles.x[0] = 1.5;
  EXPECT_FALSE(particles.valid());
  particles.x[0] = 0.5;
  particles.mass[0] = 0.0;
  EXPECT_FALSE(particles.valid());
  particles.mass[0] = 1.0;
  particles.y.push_back(0.1);  // ragged arrays
  EXPECT_FALSE(particles.valid());
}

TEST(Particles, AppendAndTotalMass) {
  ParticleSet a = uniform_lattice(2);
  ParticleSet b = uniform_lattice(2);
  a.append(b);
  EXPECT_EQ(a.size(), 16u);
  EXPECT_NEAR(a.total_mass(), 2.0, 1e-12);
}

// ---------- CIC / Poisson / forces ----------

TEST(Pm, CicConservesMass) {
  Rng rng(1);
  ParticleSet particles;
  for (int i = 0; i < 1000; ++i) {
    particles.push_back(rng.uniform(), rng.uniform(), rng.uniform(), 0, 0, 0,
                        1.0 / 1000, static_cast<std::uint64_t>(i + 1), 0);
  }
  const auto delta = cic_deposit(particles, 16);
  // sum(delta) = sum(rho/rho_mean) - N^3 = 0 for total mass 1.
  EXPECT_NEAR(delta.sum(), 0.0, 1e-9);
}

TEST(Pm, UniformLatticeIsFlat) {
  // Lattice aligned with cell centres: delta should vanish everywhere.
  const auto particles = uniform_lattice(16);
  const auto delta = cic_deposit(particles, 16);
  for (const double v : delta.raw()) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(Pm, PoissonSolvesSingleMode) {
  // delta = cos(2 pi m x) -> phi = -rhs/(2 pi m)^2 cos(2 pi m x).
  const std::size_t n = 32;
  const int m = 3;
  math::Grid3<double> delta(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double value =
        std::cos(2.0 * M_PI * m * (static_cast<double>(i)) / n);
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) delta.at(i, j, k) = value;
    }
  }
  const double rhs = 4.0;
  const auto phi = solve_poisson(delta, rhs);
  const double k2 = std::pow(2.0 * M_PI * m, 2);
  for (std::size_t i = 0; i < n; ++i) {
    const double expected =
        -rhs / k2 * std::cos(2.0 * M_PI * m * (static_cast<double>(i)) / n);
    EXPECT_NEAR(phi.at(i, 5, 7), expected, 1e-10);
  }
}

TEST(Pm, PoissonZeroModeGauge) {
  math::Grid3<double> delta(8, 1.0);  // pure k=0 content
  const auto phi = solve_poisson(delta, 1.0);
  for (const double v : phi.raw()) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(Pm, ForcesConserveMomentum) {
  // CIC deposit + CIC interpolation with a symmetric kernel: the total
  // force on a closed system vanishes.
  Rng rng(3);
  ParticleSet particles;
  for (int i = 0; i < 200; ++i) {
    particles.push_back(rng.uniform(), rng.uniform(), rng.uniform(), 0, 0, 0,
                        rng.uniform(0.5, 2.0) / 200.0,
                        static_cast<std::uint64_t>(i + 1), 0);
  }
  const auto delta = cic_deposit(particles, 16);
  const auto phi = solve_poisson(delta, 1.5 * 0.27);
  const auto acc = interpolate_forces(phi, particles);
  for (int axis = 0; axis < 3; ++axis) {
    double total = 0.0;
    for (std::size_t p = 0; p < particles.size(); ++p) {
      total += particles.mass[p] * acc[static_cast<size_t>(axis)][p];
    }
    EXPECT_NEAR(total, 0.0, 1e-8);
  }
}

TEST(Pm, TwoBodiesAttract) {
  ParticleSet particles;
  particles.push_back(0.4, 0.5, 0.5, 0, 0, 0, 0.5, 1, 0);
  particles.push_back(0.6, 0.5, 0.5, 0, 0, 0, 0.5, 2, 0);
  const auto delta = cic_deposit(particles, 32);
  const auto phi = solve_poisson(delta, 1.0);
  const auto acc = interpolate_forces(phi, particles);
  EXPECT_GT(acc[0][0], 0.0);  // left particle pulled right
  EXPECT_LT(acc[0][1], 0.0);  // right particle pulled left
  EXPECT_NEAR(acc[0][0] + acc[0][1], 0.0, 1e-9);  // equal masses
  EXPECT_NEAR(acc[1][0], 0.0, 1e-9);              // no transverse force
}

// The CIC scatter and gather with a periodic lookup per corner, as written
// before the wrapped indices were hoisted: the byte reference for both.
math::Grid3<double> reference_cic(const ParticleSet& particles, int n) {
  math::Grid3<double> delta(static_cast<std::size_t>(n), 0.0);
  const double nd = static_cast<double>(n);
  for (std::size_t p = 0; p < particles.size(); ++p) {
    const double gx = particles.x[p] * nd - 0.5;
    const double gy = particles.y[p] * nd - 0.5;
    const double gz = particles.z[p] * nd - 0.5;
    const long i0 = static_cast<long>(std::floor(gx));
    const long j0 = static_cast<long>(std::floor(gy));
    const long k0 = static_cast<long>(std::floor(gz));
    const double fx = gx - static_cast<double>(i0);
    const double fy = gy - static_cast<double>(j0);
    const double fz = gz - static_cast<double>(k0);
    const double m = particles.mass[p] * (nd * nd * nd);
    for (int di = 0; di <= 1; ++di) {
      const double wx = di ? fx : 1.0 - fx;
      for (int dj = 0; dj <= 1; ++dj) {
        const double wy = dj ? fy : 1.0 - fy;
        for (int dk = 0; dk <= 1; ++dk) {
          const double wz = dk ? fz : 1.0 - fz;
          delta.atp(i0 + di, j0 + dj, k0 + dk) += m * wx * wy * wz;
        }
      }
    }
  }
  for (double& v : delta.raw()) v -= 1.0;
  return delta;
}

std::array<std::vector<double>, 3> reference_forces(
    const math::Grid3<double>& phi, const ParticleSet& particles) {
  const auto n = static_cast<long>(phi.n());
  const double nd = static_cast<double>(n);
  const double inv_2h = nd / 2.0;
  std::array<std::vector<double>, 3> acc;
  for (auto& a : acc) a.assign(particles.size(), 0.0);
  for (std::size_t p = 0; p < particles.size(); ++p) {
    const double gx = particles.x[p] * nd - 0.5;
    const double gy = particles.y[p] * nd - 0.5;
    const double gz = particles.z[p] * nd - 0.5;
    const long i0 = static_cast<long>(std::floor(gx));
    const long j0 = static_cast<long>(std::floor(gy));
    const long k0 = static_cast<long>(std::floor(gz));
    const double fx = gx - static_cast<double>(i0);
    const double fy = gy - static_cast<double>(j0);
    const double fz = gz - static_cast<double>(k0);
    for (int di = 0; di <= 1; ++di) {
      const double wx = di ? fx : 1.0 - fx;
      for (int dj = 0; dj <= 1; ++dj) {
        const double wy = dj ? fy : 1.0 - fy;
        for (int dk = 0; dk <= 1; ++dk) {
          const double w = wx * wy * (dk ? fz : 1.0 - fz);
          const long i = i0 + di;
          const long j = j0 + dj;
          const long k = k0 + dk;
          acc[0][p] -=
              w * (phi.atp(i + 1, j, k) - phi.atp(i - 1, j, k)) * inv_2h;
          acc[1][p] -=
              w * (phi.atp(i, j + 1, k) - phi.atp(i, j - 1, k)) * inv_2h;
          acc[2][p] -=
              w * (phi.atp(i, j, k + 1) - phi.atp(i, j, k - 1)) * inv_2h;
        }
      }
    }
  }
  return acc;
}

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

TEST(Pm, CicAndForcesMatchPeriodicLookupBytes) {
  // Random particles plus ones on and next to every box face, so each
  // wrapped index (below 0 and past n-1) is exercised.
  Rng rng(8);
  ParticleSet particles;
  const double edges[] = {0.0, 1e-9, 0.01, 0.5, 0.99, 1.0 - 1e-12};
  std::uint64_t id = 1;
  for (const double ex : edges) {
    for (const double ey : edges) {
      particles.push_back(ex, ey, rng.uniform(), 0, 0, 0, 1e-4, id++, 0);
    }
  }
  while (particles.size() < 3000) {
    particles.push_back(rng.uniform(), rng.uniform(), rng.uniform(), 0, 0, 0,
                        rng.uniform(0.5, 2.0) / 3000.0, id++, 0);
  }
  for (const int n : {4, 16, 32}) {
    const auto delta = cic_deposit(particles, n);
    EXPECT_TRUE(same_bytes(delta.raw(), reference_cic(particles, n).raw()))
        << "cic n=" << n;
    const auto phi = solve_poisson(delta, 1.5 * 0.27);
    const auto acc = interpolate_forces(phi, particles);
    const auto want = reference_forces(phi, particles);
    for (int axis = 0; axis < 3; ++axis) {
      const auto a = static_cast<std::size_t>(axis);
      EXPECT_TRUE(same_bytes(acc[a], want[a]))
          << "forces n=" << n << " axis=" << axis;
    }
  }
}

TEST(Pm, MomentumUnitConversions) {
  const double v = 312.5;  // km/s
  const double a = 0.25;
  const double box = 100.0;
  const double p = momentum_from_kms(v, a, box);
  EXPECT_NEAR(kms_from_momentum(p, a, box), v, 1e-12);
}

TEST(Pm, ZeldovichModeGrowsLikeD) {
  // THE physics validation: a single-mode Zel'dovich perturbation evolved
  // by the PM leapfrog must follow the linear growth factor until shell
  // crossing. EdS cosmology so D(a) = a exactly.
  cosmo::Params params;
  params.omega_m = 1.0;
  params.omega_l = 0.0;
  const cosmo::Cosmology cosmology(params);

  const int n = 32;
  const int mode = 1;
  const double a0 = 0.05;
  const double a1 = 0.4;
  const double amplitude = 0.01;  // displacement in box units (linear)

  // Zel'dovich setup at a0: x = q + D psi, p = a^2 dx/dt = a^3 E D' psi
  // with D = a, D' = 1 (EdS, code units H0 = 1).
  ParticleSet particles;
  std::uint64_t id = 1;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      for (int k = 0; k < n; ++k) {
        const double q = (i + 0.5) / n;
        const double psi =
            amplitude * std::sin(2.0 * M_PI * mode * q);
        double x = q + a0 * psi;
        x -= std::floor(x);
        const double p =
            std::pow(a0, 3) * cosmology.efunc(a0) * psi;  // a^3 E D' psi
        particles.push_back(x, (j + 0.5) / n, (k + 0.5) / n, p, 0.0, 0.0,
                            1.0 / (static_cast<double>(n) * n * n), id++, 0);
      }
    }
  }

  PmSolver solver(cosmology, {n, params.omega_m});
  const int steps = 64;
  double a = a0;
  const double ratio = std::pow(a1 / a0, 1.0 / steps);
  for (int s = 0; s < steps; ++s) {
    const double next = a * ratio;
    solver.step(particles, a, next - a);
    a = next;
  }

  // Fit the displacement amplitude at a1 against sin(2 pi q); the
  // Lagrangian coordinate q is recovered from the particle id (ids were
  // assigned in lattice order: id - 1 = (i*n + j)*n + k).
  double num = 0.0;
  double den = 0.0;
  for (std::size_t p = 0; p < particles.size(); ++p) {
    const auto lattice_i = (particles.id[p] - 1) / (n * n);
    const double q = (static_cast<double>(lattice_i) + 0.5) / n;
    double dx = particles.x[p] - q;
    if (dx > 0.5) dx -= 1.0;
    if (dx < -0.5) dx += 1.0;
    const double basis = std::sin(2.0 * M_PI * mode * q);
    num += dx * basis;
    den += basis * basis;
  }
  const double measured = num / den;
  const double expected = a1 * amplitude;  // D(a1) psi
  EXPECT_NEAR(measured / expected, 1.0, 0.05);
}

// ---------- loader ----------

TEST(Loader, SingleLevelCountsAndMass) {
  grafic::Generator generator(cosmo::Params{}, 21);
  const auto ic = generator.single_level(8, 100.0, 0.05);
  const ParticleSet particles = particles_from_ic(ic);
  EXPECT_EQ(particles.size(), 512u);
  EXPECT_NEAR(particles.total_mass(), 1.0, 1e-9);
  EXPECT_TRUE(particles.valid());
  // Unique ids.
  std::vector<std::uint64_t> ids = particles.id;
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
}

TEST(Loader, ZoomReplacesRegionWithLighterParticles) {
  grafic::Generator generator(cosmo::Params{}, 22);
  const auto ic =
      generator.multi_level(8, 100.0, 0.05, grafic::Vec3{50, 50, 50}, 1);
  const ParticleSet particles = particles_from_ic(ic);
  // Base 8^3 minus the replaced quarter-box region + child 8^3.
  EXPECT_GT(particles.size(), 512u);
  EXPECT_NEAR(particles.total_mass(), 1.0, 0.02);
  // Two mass species present.
  const auto [min_it, max_it] =
      std::minmax_element(particles.mass.begin(), particles.mass.end());
  EXPECT_NEAR(*max_it / *min_it, 8.0, 1e-6);
  // Light (zoom) particles concentrated near the centre.
  for (std::size_t p = 0; p < particles.size(); ++p) {
    if (particles.level[p] == 1) {
      EXPECT_NEAR(particles.x[p], 0.5, 0.3);
    }
  }
}

// ---------- AMR ----------

TEST(Amr, UniformLoadDoesNotRefine) {
  const auto particles = uniform_lattice(8);
  AmrTree tree(particles, AmrOptions{2, 6, 8});
  // 4^3 base cells, 8 particles each = m_refine -> no refinement.
  EXPECT_EQ(tree.cells().size(), 64u);
  EXPECT_EQ(tree.leaf_count(), 64u);
  EXPECT_EQ(tree.max_level(), 2);
  EXPECT_TRUE(tree.check_invariants());
}

TEST(Amr, ClusterTriggersRefinement) {
  Rng rng(5);
  ParticleSet particles;
  // 500 particles in a tight ball around (0.3, 0.3, 0.3).
  for (int i = 0; i < 500; ++i) {
    auto wrap = [](double v) { return v - std::floor(v); };
    particles.push_back(wrap(0.3 + rng.normal(0, 0.01)),
                        wrap(0.3 + rng.normal(0, 0.01)),
                        wrap(0.3 + rng.normal(0, 0.01)), 0, 0, 0, 1.0 / 500,
                        static_cast<std::uint64_t>(i + 1), 0);
  }
  AmrTree tree(particles, AmrOptions{2, 8, 10});
  EXPECT_GT(tree.max_level(), 4);
  EXPECT_TRUE(tree.check_invariants());
  // Density at the cluster dwarfs the void density.
  EXPECT_GT(tree.density_at(0.3, 0.3, 0.3), 100.0);
  EXPECT_LT(tree.density_at(0.8, 0.8, 0.8), 1.0);
}

TEST(Amr, LevelMaxRespected) {
  ParticleSet particles;
  for (int i = 0; i < 100; ++i) {
    particles.push_back(0.5001, 0.5001, 0.5001, 0, 0, 0, 0.01,
                        static_cast<std::uint64_t>(i + 1), 0);
  }
  AmrTree tree(particles, AmrOptions{1, 4, 2});
  EXPECT_EQ(tree.max_level(), 4);
  EXPECT_TRUE(tree.check_invariants());
}

TEST(Amr, LeafLookupConsistent) {
  Rng rng(6);
  ParticleSet particles;
  for (int i = 0; i < 2000; ++i) {
    particles.push_back(rng.uniform(), rng.uniform(), rng.uniform(), 0, 0, 0,
                        1.0 / 2000, static_cast<std::uint64_t>(i + 1), 0);
  }
  AmrTree tree(particles, AmrOptions{3, 7, 4});
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform();
    const double y = rng.uniform();
    const double z = rng.uniform();
    const auto& leaf = tree.cells()[tree.leaf_at(x, y, z)];
    EXPECT_LE(std::abs(x - leaf.cx), leaf.half + 1e-12);
    EXPECT_LE(std::abs(y - leaf.cy), leaf.half + 1e-12);
    EXPECT_LE(std::abs(z - leaf.cz), leaf.half + 1e-12);
    EXPECT_LT(leaf.first_child, 0);
  }
}

TEST(Amr, CellsPerLevelSums) {
  const auto particles = uniform_lattice(8);
  AmrTree tree(particles, AmrOptions{2, 6, 8});
  const auto per_level = tree.cells_per_level();
  const std::size_t total =
      std::accumulate(per_level.begin(), per_level.end(), std::size_t{0});
  EXPECT_EQ(total, tree.cells().size());
}

// ---------- domain decomposition ----------

TEST(Domain, BalancedOnUniform) {
  const auto particles = uniform_lattice(16);
  for (const int ranks : {2, 4, 8}) {
    DomainDecomposition domain(particles, 4, ranks);
    EXPECT_LT(domain.imbalance(particles), 1.05) << ranks << " ranks";
    const auto load = domain.load(particles);
    std::size_t total = 0;
    for (const std::size_t l : load) total += l;
    EXPECT_EQ(total, particles.size());
  }
}

TEST(Domain, RanksCoverCurveContiguously) {
  const auto particles = uniform_lattice(8);
  DomainDecomposition domain(particles, 3, 4);
  const auto& bounds = domain.bounds();
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), 512u);
  // rank_of follows the bounds.
  int last_rank = 0;
  for (std::size_t i = 0; i < particles.size(); ++i) {
    const int r =
        domain.rank_of(particles.x[i], particles.y[i], particles.z[i]);
    EXPECT_GE(r, 0);
    EXPECT_LT(r, 4);
    last_rank = std::max(last_rank, r);
  }
  EXPECT_EQ(last_rank, 3);
}

TEST(Domain, ExchangeConservesParticles) {
  const auto all = uniform_lattice(8);
  std::atomic<std::size_t> total{0};
  std::atomic<int> misplaced{0};
  minimpi::run(4, [&](minimpi::Comm& comm) {
    ParticleSet mine;
    if (comm.rank() == 0) mine = all;
    DomainDecomposition domain(all, 3, 4);  // same domain on every rank
    const ParticleSet owned = exchange_particles(comm, mine, domain);
    total += owned.size();
    for (std::size_t i = 0; i < owned.size(); ++i) {
      if (domain.rank_of(owned.x[i], owned.y[i], owned.z[i]) != comm.rank()) {
        ++misplaced;
      }
    }
  });
  EXPECT_EQ(total.load(), all.size());
  EXPECT_EQ(misplaced.load(), 0);
}

// ---------- snapshots ----------

TEST(Snapshot, WriteReadRoundtrip) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("gc_snap_" + std::to_string(::getpid())))
          .string();
  Snapshot snap;
  snap.aexp = 0.5;
  snap.box_mpc = 100.0;
  snap.particles = uniform_lattice(4);
  snap.particles.px[0] = 0.125;

  auto path = write_snapshot(dir, 3, snap);
  ASSERT_TRUE(path.is_ok());
  EXPECT_NE(path.value().find("output_00003.bin"), std::string::npos);

  auto back = read_snapshot(path.value());
  ASSERT_TRUE(back.is_ok());
  EXPECT_DOUBLE_EQ(back.value().aexp, 0.5);
  EXPECT_DOUBLE_EQ(back.value().box_mpc, 100.0);
  EXPECT_EQ(back.value().particles.size(), 64u);
  EXPECT_DOUBLE_EQ(back.value().particles.px[0], 0.125);
  EXPECT_EQ(back.value().particles.id[63], 64u);
  std::filesystem::remove_all(dir);
}

TEST(Snapshot, ReadMissingFails) {
  EXPECT_FALSE(read_snapshot("/no/such/output_00001.bin").is_ok());
}

// ---------- run params / driver ----------

TEST(RunParams, NamelistRoundtrip) {
  RunParams params;
  params.npart_dim = 64;
  params.box_mpc = 50.0;
  params.zoom_levels = 2;
  params.zoom_centre = {10.0, 20.0, 30.0};
  params.aout = {0.3, 0.6};
  params.seed = 777;

  auto nml = io::Namelist::parse(params.to_namelist());
  ASSERT_TRUE(nml.is_ok());
  auto back = RunParams::from_namelist(nml.value());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().npart_dim, 64);
  EXPECT_DOUBLE_EQ(back.value().box_mpc, 50.0);
  EXPECT_EQ(back.value().zoom_levels, 2);
  EXPECT_DOUBLE_EQ(back.value().zoom_centre.y, 20.0);
  EXPECT_EQ(back.value().aout, (std::vector<double>{0.3, 0.6}));
  EXPECT_EQ(back.value().seed, 777u);
}

TEST(RunParams, RejectsNonsense) {
  auto nml = io::Namelist::parse("&run_params\nnpart=1\n/\n");
  ASSERT_TRUE(nml.is_ok());
  EXPECT_FALSE(RunParams::from_namelist(nml.value()).is_ok());
}

RunParams tiny_run() {
  RunParams params;
  params.npart_dim = 8;
  params.pm_grid = 16;
  params.steps = 8;
  params.a_start = 0.1;
  params.aout = {0.5};
  params.seed = 31;
  return params;
}

TEST(Simulation, SerialRunProducesSnapshots) {
  const RunResult result = run_simulation(tiny_run());
  EXPECT_EQ(result.particle_count, 512u);
  EXPECT_EQ(result.steps_taken, 8);
  ASSERT_EQ(result.snapshots.size(), 2u);  // aout=0.5 plus a_end
  EXPECT_NEAR(result.snapshots[0].aexp, 0.5, 1e-9);
  EXPECT_NEAR(result.snapshots[1].aexp, 1.0, 1e-9);
  EXPECT_TRUE(result.snapshots[1].particles.valid());
  EXPECT_NEAR(result.snapshots[1].particles.total_mass(), 1.0, 1e-9);
}

TEST(Simulation, StructureGrows) {
  // Gravity clusters matter: density variance rises from start to end.
  const RunResult result = run_simulation(tiny_run());
  const auto& final_particles = result.snapshots.back().particles;
  const auto delta = cic_deposit(final_particles, 8);
  double var = 0.0;
  for (const double v : delta.raw()) var += v * v;
  var /= static_cast<double>(delta.size());
  EXPECT_GT(var, 0.05);  // appreciably non-uniform by a = 1
}

TEST(Simulation, StepCallbackInvoked) {
  int calls = 0;
  double last_a = 0.0;
  run_simulation(tiny_run(), [&](int, double a, const ParticleSet&) {
    ++calls;
    EXPECT_GT(a, last_a);
    last_a = a;
  });
  EXPECT_EQ(calls, 8);
}

/// memcmp of every array a snapshot carries.
bool same_bytes(const ParticleSet& a, const ParticleSet& b) {
  auto same = [](const auto& u, const auto& v) {
    using T = typename std::decay_t<decltype(u)>::value_type;
    return u.size() == v.size() &&
           (u.empty() ||
            std::memcmp(u.data(), v.data(), u.size() * sizeof(T)) == 0);
  };
  return same(a.x, b.x) && same(a.y, b.y) && same(a.z, b.z) &&
         same(a.px, b.px) && same(a.py, b.py) && same(a.pz, b.pz) &&
         same(a.mass, b.mass) && same(a.id, b.id) && same(a.level, b.level);
}

TEST(Simulation, OutputCallbackStreamsTheRetainedSnapshots) {
  RunParams zoom = tiny_run();
  zoom.aout = {0.3, 0.6};
  zoom.zoom_levels = 2;
  zoom.zoom_centre = {40.0, 55.0, 70.0};
  for (const RunParams& params : {tiny_run(), zoom}) {
    const RunResult retained = run_simulation(params);
    std::vector<double> aexps;
    std::vector<ParticleSet> streamed;
    const RunResult streaming = run_simulation(
        params, [&](double aexp, const ParticleSet& particles) {
          aexps.push_back(aexp);
          streamed.push_back(particles);
        });
    EXPECT_TRUE(streaming.snapshots.empty());
    EXPECT_EQ(streaming.particle_count, retained.particle_count);
    EXPECT_EQ(streaming.steps_taken, retained.steps_taken);
    ASSERT_EQ(streamed.size(), retained.snapshots.size());
    for (std::size_t s = 0; s < streamed.size(); ++s) {
      const Snapshot& snap = retained.snapshots[s];
      EXPECT_EQ(std::memcmp(&aexps[s], &snap.aexp, sizeof(double)), 0);
      EXPECT_TRUE(same_bytes(streamed[s], snap.particles))
          << "zoom_levels=" << params.zoom_levels << " output " << s;
    }
  }
}

TEST(Simulation, AdaptiveSteppingSubdivides) {
  RunParams params = tiny_run();
  params.adaptive = true;
  params.cfl = 0.05;  // tight courant limit -> many substeps
  const RunResult adaptive = run_simulation(params);
  const RunResult fixed = run_simulation(tiny_run());
  EXPECT_GT(adaptive.steps_taken, fixed.steps_taken);
  ASSERT_EQ(adaptive.snapshots.size(), fixed.snapshots.size());
  EXPECT_NEAR(adaptive.snapshots.back().aexp, 1.0, 1e-9);
  EXPECT_TRUE(adaptive.snapshots.back().particles.valid());
}

TEST(Simulation, AdaptiveRespectsBackstop) {
  RunParams params = tiny_run();
  params.adaptive = true;
  params.cfl = 1e-7;  // absurd limit: the backstop must terminate the run
  const RunResult result = run_simulation(params);
  EXPECT_LE(result.steps_taken, 64 * params.steps + params.steps);
  EXPECT_EQ(result.snapshots.size(), 2u);
}

TEST(RunParams, AdaptiveRoundtripsThroughNamelist) {
  RunParams params;
  params.adaptive = true;
  params.cfl = 0.3;
  auto nml = io::Namelist::parse(params.to_namelist());
  ASSERT_TRUE(nml.is_ok());
  auto back = RunParams::from_namelist(nml.value());
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(back.value().adaptive);
  EXPECT_DOUBLE_EQ(back.value().cfl, 0.3);
}

TEST(Simulation, ParallelMatchesSerial) {
  const RunParams params = tiny_run();
  const RunResult serial = run_simulation(params);
  const RunResult parallel = run_simulation_parallel(params, 3);
  ASSERT_EQ(parallel.snapshots.size(), serial.snapshots.size());
  EXPECT_EQ(parallel.particle_count, serial.particle_count);

  const auto& a = serial.snapshots.back().particles;
  const auto& b = parallel.snapshots.back().particles;
  ASSERT_EQ(a.size(), b.size());
  std::vector<std::size_t> of_id(a.size() + 1);
  for (std::size_t i = 0; i < b.size(); ++i) {
    of_id[static_cast<std::size_t>(b.id[i])] = i;
  }
  double max_dx = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::size_t j = of_id[static_cast<std::size_t>(a.id[i])];
    auto wrapped = [](double d) {
      if (d > 0.5) d -= 1.0;
      if (d < -0.5) d += 1.0;
      return std::abs(d);
    };
    max_dx = std::max(max_dx, wrapped(a.x[i] - b.x[j]));
  }
  EXPECT_LT(max_dx, 1e-12);
}

}  // namespace
}  // namespace gc::ramses
