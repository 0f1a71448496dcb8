// Tests for the RAMSES-style N-body stack: PM gravity, leapfrog, AMR,
// snapshots and run_simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "cosmo/cosmology.hpp"
#include "math/fft.hpp"
#include "parallel/pool.hpp"
#include "ramses/amr.hpp"
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

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// Every instance of `kernel` this host can run (SSE2 runs the scalar
/// loop, AVX-512F its vector instance). Prints which run and which the
/// host cannot run, so a missing instance never passes unnoticed.
std::vector<math::Isa> instances(const char* kernel) {
  std::vector<math::Isa> isas;
  std::string ran;
  std::string not_run;
  for (const math::Isa isa : {math::Isa::kSse2, math::Isa::kAvx512}) {
    if (math::host_supports(isa)) {
      isas.push_back(isa);
      ran += std::string(" ") + math::isa_name(isa);
    } else {
      not_run += std::string(" ") + math::isa_name(isa);
    }
  }
  std::printf("[ INSTANCE ] %s ran:%s; not supported by this host:%s\n",
              kernel, ran.c_str(),
              not_run.empty() ? " none" : not_run.c_str());
  return isas;
}

// ---------- particles ----------

// wrap01 as the scalar loop computes it: the byte reference for every
// wrap_positions instance.
double reference_wrap01(double v) {
  v -= std::floor(v);
  if (v >= 1.0) v = 0.0;
  return v;
}

TEST(Particles, WrapPositions) {
  // -1e-17 - floor(-1e-17) rounds to 1.0 and must come back as 0.0;
  // -0.0, NaN and +-inf must keep the scalar wrap's bits too. x, y and z
  // take the values from offsets 0, 3 and 7, so each value sits among the
  // first eight entries of some axis: in a vector block from length 8 on,
  // in the scalar tail below it. Lengths 1 to 17 run every tail length.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> values = {
      -0.0, -1e-17, 1.0, std::nextafter(1.0, 0.0), -3.25, 1e15 + 0.5,
      inf,  -inf,   std::numeric_limits<double>::quiet_NaN(), 1.25, -0.25};
  const auto value = [&values](std::size_t i) {
    return values[i % values.size()];
  };
  const std::vector<math::Isa> isas = instances("wrap_positions");
  for (std::size_t length = 1; length <= 17; ++length) {
    ParticleSet particles;
    for (std::size_t i = 0; i < length; ++i) {
      particles.push_back(value(i), value(i + 3), value(i + 7), 0, 0, 0, 1.0,
                          i + 1, 0);
    }
    ParticleSet want = particles;
    for (auto* axis : {&want.x, &want.y, &want.z}) {
      for (double& v : *axis) v = reference_wrap01(v);
    }
    for (const std::size_t threads : {1, 4}) {
      parallel::set_thread_count(threads);
      for (const math::Isa isa : isas) {
        ParticleSet got = particles;
        got.wrap_positions(isa);
        EXPECT_TRUE(same_bytes(got.x, want.x) && same_bytes(got.y, want.y) &&
                    same_bytes(got.z, want.z))
            << "length=" << length << " " << math::isa_name(isa)
            << " threads=" << threads;
      }
    }
  }
  parallel::set_thread_count(0);

  ParticleSet particles;
  particles.push_back(1.25, -0.25, 3.0, 0, 0, 0, 1.0, 1, 0);
  particles.push_back(-1e-17, -0.0, std::nextafter(1.0, 0.0), 0, 0, 0, 1.0,
                      2, 0);
  particles.wrap_positions();
  EXPECT_DOUBLE_EQ(particles.x[0], 0.25);
  EXPECT_DOUBLE_EQ(particles.y[0], 0.75);
  EXPECT_DOUBLE_EQ(particles.z[0], 0.0);
  EXPECT_FALSE(std::signbit(particles.x[1]));  // +0.0, not 1.0 or -0.0
  EXPECT_EQ(particles.x[1], 0.0);
  EXPECT_FALSE(std::signbit(particles.y[1]));
  EXPECT_EQ(particles.z[1], std::nextafter(1.0, 0.0));
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

// The CIC scatter and gather with a periodic lookup per corner, each index
// wrapped by the double modulo: the byte reference for both.
std::size_t modulo_index(std::size_t size, long i, long j, long k) {
  const auto n = static_cast<long>(size);
  const auto w = [n](long x) { return ((x % n) + n) % n; };
  return static_cast<std::size_t>((w(i) * n + w(j)) * n + w(k));
}

// The deposit scatters each run of 16384 particles into a grid of its own
// and sums those grids in run order, so the reference does too.
math::Grid3<double> reference_cic(const ParticleSet& particles, int n) {
  constexpr std::size_t kChunk = 16384;
  math::Grid3<double> delta(static_cast<std::size_t>(n), 0.0);
  math::Grid3<double> chunk = delta;
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
          chunk.raw()[modulo_index(chunk.n(), i0 + di, j0 + dj, k0 + dk)] +=
              m * wx * wy * wz;
        }
      }
    }
    if ((p + 1) % kChunk == 0 || p + 1 == particles.size()) {
      for (std::size_t c = 0; c < delta.size(); ++c) {
        delta.raw()[c] += chunk.raw()[c];
      }
      chunk = math::Grid3<double>(delta.n(), 0.0);
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
          const auto at = [&phi](long a, long b, long c) {
            return phi.raw()[modulo_index(phi.n(), a, b, c)];
          };
          acc[0][p] -= w * (at(i + 1, j, k) - at(i - 1, j, k)) * inv_2h;
          acc[1][p] -= w * (at(i, j + 1, k) - at(i, j - 1, k)) * inv_2h;
          acc[2][p] -= w * (at(i, j, k + 1) - at(i, j, k - 1)) * inv_2h;
        }
      }
    }
  }
  return acc;
}

/// A potential with random values: the gather's bytes depend only on the
/// mesh values, and a random mesh exists for any n.
math::Grid3<double> random_phi(int n, std::uint64_t seed) {
  Rng rng(seed);
  math::Grid3<double> phi(static_cast<std::size_t>(n));
  for (double& v : phi.raw()) v = rng.normal();
  return phi;
}

/// The final particles of campaign_real's first zoom2 job: 16^3, two
/// nested levels, a 32^3 mesh and 24 steps, centred on cell (101, 59, 109)
/// of 128 (zoom1's heaviest halo). 11,440 particles, most of them packed
/// into the nested boxes, which cross the periodic boundary.
ParticleSet zoom2_particles() {
  RunParams params;
  params.npart_dim = 16;
  params.pm_grid = 32;
  params.steps = 24;
  params.seed = 2101;
  params.zoom_levels = 2;
  const double cell = params.box_mpc / 128.0;
  params.zoom_centre = {101 * cell, 59 * cell, 109 * cell};
  return run_simulation(params).snapshots.back().particles;
}

TEST(Pm, CicAndForcesMatchPeriodicLookupBytes) {
  // Random particles plus ones on and next to every box face, so each
  // wrapped index (below 0 and past n-1) is exercised: x = 0 puts the
  // first CIC corner at i0 = -1 and x = nextafter(1, 0) at i0 = n - 1, so
  // the gather reaches -2 and n + 1, outside [-n, 2n) at n = 1. A few
  // particles outside the box reach past [-n, 2n) at every n, which the
  // AVX-512 instances leave to the scalar loop block by block.
  Rng rng(8);
  ParticleSet particles;
  const double edges[] = {0.0,  1e-9, 0.01, 0.5, 0.99, 1.0 - 1e-12,
                          std::nextafter(1.0, 0.0)};
  std::uint64_t id = 1;
  for (const double ex : edges) {
    for (const double ey : edges) {
      particles.push_back(ex, ey, rng.uniform(), 0, 0, 0, 1e-4, id++, 0);
    }
  }
  for (const double out : {-1.75, 2.5, -40.0}) {
    particles.push_back(rng.uniform(), out, rng.uniform(), 0, 0, 0, 1e-4,
                        id++, 0);
  }
  while (particles.size() < 3000) {
    particles.push_back(rng.uniform(), rng.uniform(), rng.uniform(), 0, 0, 0,
                        rng.uniform(0.5, 2.0) / 3000.0, id++, 0);
  }
  // Both kernels also on 1 to 17 particles (no full block of eight, full
  // blocks with every tail length), on a clustered zoom2 set, and on more
  // than one 16384-particle deposit chunk, so the deposit's private grids
  // and their chunk-ordered reduction run.
  std::vector<std::pair<std::string, ParticleSet>> sets;
  sets.emplace_back("box edges + random", particles);
  for (std::size_t count = 1; count <= 17; ++count) {
    ParticleSet head;
    for (std::size_t p = 0; p < count; ++p) {
      head.push_back(particles.x[p], particles.y[p], particles.z[p], 0, 0, 0,
                     particles.mass[p], particles.id[p], 0);
    }
    sets.emplace_back(std::to_string(count) + " particles", head);
  }
  sets.emplace_back("zoom2", zoom2_particles());
  ASSERT_EQ(sets.back().second.size(), 11440u);
  ParticleSet chunked = particles;
  while (chunked.size() < 40000) {
    chunked.push_back(rng.uniform(), rng.uniform(), rng.uniform(), 0, 0, 0,
                      rng.uniform(0.5, 2.0) / 40000.0, id++, 0);
  }
  sets.emplace_back("three deposit chunks", chunked);

  const std::vector<math::Isa> deposit_isas = instances("cic_deposit");
  const std::vector<math::Isa> force_isas = instances("interpolate_forces");
  for (const int n : {1, 2, 3, 4, 16, 32}) {
    const auto phi = random_phi(n, 100 + static_cast<std::uint64_t>(n));
    for (const auto& [name, set] : sets) {
      const auto want_delta = reference_cic(set, n);
      const auto want = reference_forces(phi, set);
      for (const std::size_t threads : {1, 4}) {
        parallel::set_thread_count(threads);
        for (const math::Isa isa : deposit_isas) {
          EXPECT_TRUE(
              same_bytes(cic_deposit(isa, set, n).raw(), want_delta.raw()))
              << "cic " << name << " n=" << n << " " << math::isa_name(isa)
              << " threads=" << threads;
        }
        for (const math::Isa isa : force_isas) {
          const auto acc = interpolate_forces(isa, phi, set);
          for (int axis = 0; axis < 3; ++axis) {
            const auto a = static_cast<std::size_t>(axis);
            EXPECT_TRUE(same_bytes(acc[a], want[a]))
                << "forces " << name << " n=" << n << " axis=" << axis
                << " " << math::isa_name(isa) << " threads=" << threads;
          }
        }
      }
    }
  }
  parallel::set_thread_count(0);
}

// solve_poisson as it stood before it filled its field in one pass and
// divided once per |k| class: a zeroed field, a copy, one division per
// cell, then the real parts. The byte reference for the solve.
math::Grid3<double> reference_poisson(math::Grid3<double> delta,
                                      double rhs_factor) {
  const std::size_t n = delta.n();
  std::vector<math::Complex> field(n * n * n);
  const double* din = delta.raw().data();
  math::Complex* f = field.data();
  parallel::parallel_for(0, field.size(), 8192,
                         [=](std::size_t begin, std::size_t end) {
                           for (std::size_t i = begin; i < end; ++i) {
                             f[i] = math::Complex(din[i], 0.0);
                           }
                         });
  math::fft3(field, n, false);
  const double two_pi = 2.0 * M_PI;
  std::vector<double> k1d(n);
  for (std::size_t i = 0; i < n; ++i) {
    k1d[i] = two_pi * static_cast<double>(math::freq_index(i, n));
  }
  parallel::parallel_for(
      0, n, 1, [&, f](std::size_t i_begin, std::size_t i_end) {
        for (std::size_t i = i_begin; i < i_end; ++i) {
          const double kx2 = k1d[i] * k1d[i];
          for (std::size_t j = 0; j < n; ++j) {
            const double kxy2 = kx2 + k1d[j] * k1d[j];
            math::Complex* row = f + (i * n + j) * n;
            for (std::size_t l = 0; l < n; ++l) {
              const double k2 = kxy2 + k1d[l] * k1d[l];
              row[l] *= k2 > 0.0 ? -rhs_factor / k2 : 0.0;
            }
          }
        }
      });
  math::fft3(field, n, true);
  double* pout = delta.raw().data();
  parallel::parallel_for(0, field.size(), 8192,
                         [=](std::size_t begin, std::size_t end) {
                           for (std::size_t i = begin; i < end; ++i) {
                             pout[i] = f[i].real();
                           }
                         });
  return delta;
}

TEST(Pm, PoissonMatchesReferenceBytes) {
  // Random overdensities with exact zeros of both signs mixed in, and a
  // pure k = 0 field, on every mesh size from one cell to 64^3, with the
  // campaign's factor 1.5 * Omega_m / a among the right-hand sides.
  const double rhs_factors[] = {1.0, 3.7, 1.5 * 0.27 / 0.6};
  for (const std::size_t n : {1, 2, 4, 8, 16, 32, 64}) {
    Rng rng(40 + n);
    math::Grid3<double> mixed(n);
    for (std::size_t i = 0; i < mixed.size(); ++i) {
      mixed.raw()[i] = i % 5 == 1 ? -0.0 : i % 5 == 3 ? 0.0 : rng.normal();
    }
    math::Grid3<double> zeros(n);
    for (std::size_t i = 0; i < zeros.size(); ++i) {
      zeros.raw()[i] = i % 2 == 0 ? -0.0 : 0.0;
    }
    const std::pair<const char*, math::Grid3<double>> inputs[] = {
        {"mixed", mixed},
        {"signed zeros", zeros},
        {"k=0", math::Grid3<double>(n, 0.75)}};
    for (const auto& [name, delta] : inputs) {
      for (const double rhs : rhs_factors) {
        parallel::set_thread_count(1);
        const auto want = reference_poisson(delta, rhs);
        for (const std::size_t threads : {1, 4}) {
          parallel::set_thread_count(threads);
          const auto got = solve_poisson(delta, rhs);
          EXPECT_TRUE(same_bytes(got.raw(), want.raw()))
              << name << " n=" << n << " rhs=" << rhs
              << " threads=" << threads;
        }
      }
    }
  }
  parallel::set_thread_count(0);
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
  Forces forces;
  for (int s = 0; s < steps; ++s) {
    const double da = a * ratio - a;
    solver.step(particles, a, da, forces);
    a += da;  // the sum the step's closing forces were computed at
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

TEST(Pm, StepRecomputesForeignForces) {
  // Forces carried from another expansion factor (one ulp away) or for
  // another particle count must not open the step: it recomputes them and
  // lands on the bytes of a step from fresh forces.
  const cosmo::Cosmology cosmology{cosmo::Params{}};
  const PmSolver solver(cosmology, {16, 0.27});
  grafic::Generator generator(cosmo::Params{}, 41);
  const ParticleSet init =
      particles_from_ic(generator.single_level(8, 100.0, 0.2));
  const double a = 0.2;
  const double da = 0.01;

  ParticleSet fresh = init;
  Forces fresh_forces;
  solver.step(fresh, a, da, fresh_forces);

  const std::size_t n = init.size();
  Forces other_a;
  for (auto& axis : other_a.acc) axis.assign(n, 1e3);
  other_a.a = std::nextafter(a, 1.0);
  Forces other_count;
  for (auto& axis : other_count.acc) axis.assign(n - 1, 1e3);
  other_count.a = a;
  for (Forces* foreign : {&other_a, &other_count}) {
    ParticleSet particles = init;
    solver.step(particles, a, da, *foreign);
    EXPECT_TRUE(same_bytes(particles.x, fresh.x));
    EXPECT_TRUE(same_bytes(particles.y, fresh.y));
    EXPECT_TRUE(same_bytes(particles.z, fresh.z));
    EXPECT_TRUE(same_bytes(particles.px, fresh.px));
    EXPECT_TRUE(same_bytes(particles.py, fresh.py));
    EXPECT_TRUE(same_bytes(particles.pz, fresh.pz));
    EXPECT_EQ(std::memcmp(&foreign->a, &fresh_forces.a, sizeof(double)), 0);
    for (std::size_t axis = 0; axis < 3; ++axis) {
      EXPECT_TRUE(same_bytes(foreign->acc[axis], fresh_forces.acc[axis]));
    }
  }
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

TEST(RunParams, RejectsGridsThatAreNotPowersOfTwo) {
  // GRAFIC transforms the npart^3 mesh and the PM the pm_grid^3 one: a
  // namelist that would reach the radix-2 FFT with another size fails
  // here instead of aborting the process there.
  for (const char* run : {"npart=12", "npart=24", "npart=16\npm_grid=48",
                          "npart=16\npm_grid=0"}) {
    auto nml = io::Namelist::parse(std::string("&run_params\n") + run +
                                   "\n/\n");
    ASSERT_TRUE(nml.is_ok());
    const auto params = RunParams::from_namelist(nml.value());
    ASSERT_FALSE(params.is_ok()) << run;
    EXPECT_EQ(params.status().code(), ErrorCode::kInvalidArgument) << run;
  }
  auto nml = io::Namelist::parse("&run_params\nnpart=16\npm_grid=32\n/\n");
  ASSERT_TRUE(nml.is_ok());
  EXPECT_TRUE(RunParams::from_namelist(nml.value()).is_ok());
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

/// The textbook kick-drift-kick: two force evaluations per step, from the
/// public kernels, and the driver's step schedule. What run_simulation
/// computes with the forces it carries between steps.
std::vector<ParticleSet> two_evaluation_run(const RunParams& params) {
  const cosmo::Cosmology cosmology(params.cosmology);
  grafic::Generator generator(params.cosmology, params.seed);
  ParticleSet particles = particles_from_ic(
      params.zoom_levels > 0
          ? generator.multi_level(params.npart_dim, params.box_mpc,
                                  params.a_start, params.zoom_centre,
                                  params.zoom_levels)
          : generator.single_level(params.npart_dim, params.box_mpc,
                                   params.a_start));
  const auto forces_at = [&](double a) {
    return interpolate_forces(
        solve_poisson(cic_deposit(particles, params.pm_grid),
                      1.5 * params.cosmology.omega_m / a),
        particles);
  };
  const auto kick = [&](double a, double da) {
    const auto acc = forces_at(a);
    const double factor = da / (a * cosmology.efunc(a));
    for (std::size_t p = 0; p < particles.size(); ++p) {
      particles.px[p] += acc[0][p] * factor;
      particles.py[p] += acc[1][p] * factor;
      particles.pz[p] += acc[2][p] * factor;
    }
  };
  const auto drift = [&](double a, double da) {
    const double factor = da / (a * a * a * cosmology.efunc(a));
    for (std::size_t p = 0; p < particles.size(); ++p) {
      particles.x[p] += particles.px[p] * factor;
      particles.y[p] += particles.py[p] * factor;
      particles.z[p] += particles.pz[p] * factor;
    }
    particles.wrap_positions();
  };
  const auto courant_da = [&](double a) {
    double p_max = 0.0;
    for (std::size_t p = 0; p < particles.size(); ++p) {
      p_max = std::max({p_max, std::abs(particles.px[p]),
                        std::abs(particles.py[p]), std::abs(particles.pz[p])});
    }
    if (p_max <= 0.0) return 1e9;
    const double dx_per_da = p_max / (a * a * a * cosmology.efunc(a));
    return params.cfl * (1.0 / static_cast<double>(params.pm_grid)) /
           dx_per_da;
  };

  std::vector<ParticleSet> after_step;
  const double ratio = params.a_end / params.a_start;
  const int max_total_steps =
      params.adaptive ? 64 * params.steps : params.steps;
  int taken = 0;
  for (int i = 0; i < params.steps; ++i) {
    double current = params.a_start *
                     std::pow(ratio, static_cast<double>(i) / params.steps);
    const double a1 =
        params.a_start *
        std::pow(ratio, static_cast<double>(i + 1) / params.steps);
    while (current < a1 - 1e-14) {
      double da = a1 - current;
      if (params.adaptive) {
        da = std::min(da, courant_da(current));
        if (taken >= max_total_steps) da = a1 - current;
      }
      kick(current, 0.5 * da);
      drift(current + 0.5 * da, da);
      kick(current + da, 0.5 * da);
      current += da;
      ++taken;
    }
    after_step.push_back(particles);
  }
  return after_step;
}

TEST(Simulation, CarriedForcesMatchTwoEvaluationLeapfrog) {
  RunParams single = tiny_run();
  single.npart_dim = 16;
  RunParams zoom = tiny_run();
  zoom.zoom_levels = 2;
  zoom.zoom_centre = {40.0, 55.0, 70.0};
  RunParams adaptive = tiny_run();
  adaptive.adaptive = true;
  adaptive.cfl = 0.05;
  for (const RunParams& params : {single, zoom, adaptive}) {
    const std::vector<ParticleSet> want = two_evaluation_run(params);
    for (const std::size_t threads : {1u, 4u}) {
      parallel::set_thread_count(threads);
      std::size_t steps_seen = 0;
      run_simulation(params, [&](int step, double, const ParticleSet& p) {
        const auto s = static_cast<std::size_t>(step);
        ASSERT_LT(s, want.size());
        EXPECT_TRUE(same_bytes(p, want[s]))
            << "npart=" << params.npart_dim << " zoom=" << params.zoom_levels
            << " adaptive=" << params.adaptive << " threads=" << threads
            << " step " << step;
        ++steps_seen;
      });
      EXPECT_EQ(steps_seen, want.size());
    }
  }
  parallel::set_thread_count(0);
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

}  // namespace
}  // namespace gc::ramses
