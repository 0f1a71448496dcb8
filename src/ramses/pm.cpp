#include "ramses/pm.hpp"

#include <immintrin.h>

#include <array>
#include <cmath>
#include <cstdint>

#include "common/log.hpp"
#include "math/fft.hpp"
#include "parallel/pool.hpp"

namespace gc::ramses {

namespace {

/// Particles per CIC deposit chunk. The chunk decomposition depends only on
/// the particle count — never on the thread count — so the chunk-ordered
/// reduction below gives byte-identical grids for any GC_THREADS.
constexpr std::size_t kDepositGrain = 16384;

/// Grain for the embarrassingly parallel per-particle sweeps (disjoint
/// writes, so chunking cannot affect the result).
constexpr std::size_t kParticleGrain = 8192;

/// Mesh indices first, first+1, ... wrapped onto [0, n) the way
/// Grid3::atp wraps them. The CIC loops wrap each particle's stencil once
/// with this instead of on every lookup.
template <std::size_t N>
std::array<long, N> wrapped_run(long first, long n) {
  std::array<long, N> out;
  for (std::size_t o = 0; o < N; ++o) {
    out[o] = math::wrap(first + static_cast<long>(o), n);
  }
  return out;
}

/// What the CIC deposit reads: the particle positions and masses, and the
/// n^3 mesh's side and mass normalization.
struct Deposit {
  const double* x;
  const double* y;
  const double* z;
  const double* mass;
  long n;
  double nd;
  double cell_mass_unit;  // delta normalization, n^3
};

/// The deposit of particles [begin, end) into mesh g, one at a time: the
/// reference every instance matches, and the one that runs wherever the
/// AVX-512 instance cannot. Cell-centred CIC: each particle shares its
/// mass with the 8 nearest cell centres, corners in (di, dj, dk) order.
void deposit_scalar(const Deposit& d, double* g, std::size_t begin,
                    std::size_t end) {
  const long n = d.n;
  for (std::size_t p = begin; p < end; ++p) {
    const double gx = d.x[p] * d.nd - 0.5;
    const double gy = d.y[p] * d.nd - 0.5;
    const double gz = d.z[p] * d.nd - 0.5;
    const long i0 = static_cast<long>(std::floor(gx));
    const long j0 = static_cast<long>(std::floor(gy));
    const long k0 = static_cast<long>(std::floor(gz));
    const double fx = gx - static_cast<double>(i0);
    const double fy = gy - static_cast<double>(j0);
    const double fz = gz - static_cast<double>(k0);
    const double m = d.mass[p] * d.cell_mass_unit;
    const auto wi = wrapped_run<2>(i0, n);
    const auto wj = wrapped_run<2>(j0, n);
    const auto wk = wrapped_run<2>(k0, n);
    for (int di = 0; di <= 1; ++di) {
      const double wx = di ? fx : 1.0 - fx;
      for (int dj = 0; dj <= 1; ++dj) {
        const double wy = dj ? fy : 1.0 - fy;
        for (int dk = 0; dk <= 1; ++dk) {
          const double wz = dk ? fz : 1.0 - fz;
          g[(wi[di] * n + wj[dj]) * n + wk[dk]] += m * wx * wy * wz;
        }
      }
    }
  }
}

/// The scalar deposit's arithmetic on eight particles at once, one per
/// 64-bit lane: floor as round-to-minus-infinity, the periodic wrap as a
/// masked add or subtract of n (math::wrap on [-n, 2n)), the flat index
/// i * n^2 + j * n + k from 32x32 -> 64-bit multiplies, and the weights
/// ((m * wx) * wy) * wz. The block's 64 adds then hit the mesh one at a
/// time, particle by particle and corner by corner as the scalar loop
/// makes them, so every cell sums the same terms in the same order. A
/// block with a corner index outside [-n, 2n), a position that is not
/// finite, and the tail of the range run the scalar loop; so does every
/// particle when n * n does not fit the 32-bit multiplies.
__attribute__((target("avx512f"))) void deposit_avx512(const Deposit& d,
                                                       double* g,
                                                       std::size_t begin,
                                                       std::size_t end) {
  constexpr std::size_t kBlock = 8;
  const long n = d.n;
  if (n >= 65536) {
    deposit_scalar(d, g, begin, end);
    return;
  }
  const __m512d zero = _mm512_setzero_pd();
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d nd = _mm512_set1_pd(d.nd);
  const __m512d unit = _mm512_set1_pd(d.cell_mass_unit);
  // i0 >= -n and i0 + 1 < 2n.
  const __m512d lowest = _mm512_set1_pd(static_cast<double>(-n));
  const __m512d highest = _mm512_set1_pd(static_cast<double>(2 * n - 2));
  const __m512i vn = _mm512_set1_epi64(n);
  const __m512i vnn = _mm512_set1_epi64(n * n);
  const __m512i izero = _mm512_setzero_si512();
  // Corner c = 4 di + 2 dj + dk of lane l: its flat index and its term.
  alignas(64) std::int64_t cell_of[8][kBlock];
  alignas(64) double term[8][kBlock];
  std::size_t p = begin;
  for (; p + kBlock <= end; p += kBlock) {
    const double* pos[3] = {d.x + p, d.y + p, d.z + p};
    __mmask8 in_range = 0xFF;
    __m512d cell[3];
    __m512d below[3];
    for (int a = 0; a < 3; ++a) {
      cell[a] =
          _mm512_sub_pd(_mm512_mul_pd(_mm512_loadu_pd(pos[a]), nd), half);
      below[a] = _mm512_mask_roundscale_pd(
          zero, 0xFF, cell[a], _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
      in_range &= _mm512_cmp_pd_mask(below[a], lowest, _CMP_GE_OQ) &
                  _mm512_cmp_pd_mask(below[a], highest, _CMP_LE_OQ);
    }
    if (in_range != 0xFF) {
      deposit_scalar(d, g, p, p + kBlock);
      continue;
    }
    // Per axis: the weights of its two corners and their wrapped indices.
    __m512d weight[3][2];
    __m512i index[3][2];
    for (int a = 0; a < 3; ++a) {
      // below[a] holds integers in [-65536, 131072), so the fraction is
      // the scalar loop's x - double(long(floor(x))).
      weight[a][1] = _mm512_sub_pd(cell[a], below[a]);
      weight[a][0] = _mm512_sub_pd(one, weight[a][1]);
      const __m256i i0 = _mm512_mask_cvtpd_epi32(_mm256_setzero_si256(),
                                                 0xFF, below[a]);
      const __m512i i0_64 = _mm512_mask_cvtepi32_epi64(izero, 0xFF, i0);
      for (int o = 0; o < 2; ++o) {
        __m512i i = _mm512_add_epi64(i0_64, _mm512_set1_epi64(o));
        i = _mm512_mask_add_epi64(i, _mm512_cmplt_epi64_mask(i, izero), i,
                                  vn);
        i = _mm512_mask_sub_epi64(i, _mm512_cmpge_epi64_mask(i, vn), i, vn);
        index[a][o] = i;
      }
    }
    const __m512d m = _mm512_mul_pd(_mm512_loadu_pd(d.mass + p), unit);
    for (int di = 0; di <= 1; ++di) {
      const __m512i ii = _mm512_maskz_mul_epu32(0xFF, index[0][di], vnn);
      const __m512d mx = _mm512_mul_pd(m, weight[0][di]);
      for (int dj = 0; dj <= 1; ++dj) {
        const __m512i ij = _mm512_add_epi64(
            ii, _mm512_maskz_mul_epu32(0xFF, index[1][dj], vn));
        const __m512d mxy = _mm512_mul_pd(mx, weight[1][dj]);
        for (int dk = 0; dk <= 1; ++dk) {
          const int c = 4 * di + 2 * dj + dk;
          _mm512_store_si512(cell_of[c], _mm512_add_epi64(ij, index[2][dk]));
          _mm512_store_pd(term[c], _mm512_mul_pd(mxy, weight[2][dk]));
        }
      }
    }
    for (std::size_t l = 0; l < kBlock; ++l) {
      for (int c = 0; c < 8; ++c) g[cell_of[c][l]] += term[c][l];
    }
  }
  deposit_scalar(d, g, p, end);
}

}  // namespace

math::Grid3<double> cic_deposit(const ParticleSet& particles, int n) {
  return cic_deposit(math::host_isa(), particles, n);
}

math::Grid3<double> cic_deposit(math::Isa isa, const ParticleSet& particles,
                                int n) {
  GC_CHECK(n > 0);
  GC_CHECK_MSG(math::host_supports(isa),
               "cic_deposit: the host cannot run this ISA");
  const auto nu = static_cast<std::size_t>(n);
  math::Grid3<double> delta(nu, 0.0);
  const double nd = static_cast<double>(n);
  const Deposit d{particles.x.data(), particles.y.data(),
                  particles.z.data(), particles.mass.data(),
                  static_cast<long>(n), nd, nd * nd * nd};
  void (*deposit)(const Deposit&, double*, std::size_t, std::size_t) =
      isa == math::Isa::kAvx512 ? deposit_avx512 : deposit_scalar;

  const std::size_t npart = particles.size();
  const std::size_t nchunks =
      parallel::chunk_count(0, npart, kDepositGrain);

  // Scatter each fixed particle chunk into its own private grid, then
  // reduce the grids cell-by-cell in ascending chunk order. Within a chunk
  // particles deposit in index order, so the full floating-point reduction
  // tree is a function of the particle count alone.
  if (nchunks <= 1) {
    deposit(d, delta.raw().data(), 0, npart);
  } else {
    std::vector<math::Grid3<double>> partials(nchunks,
                                              math::Grid3<double>(nu, 0.0));
    parallel::for_each_chunk(
        0, npart, kDepositGrain,
        [&](std::size_t c, std::size_t begin, std::size_t end) {
          deposit(d, partials[c].raw().data(), begin, end);
        });
    // Cell-parallel, chunk-ordered reduction: every cell sums its chunk
    // contributions in the same (ascending) order at any thread count.
    double* out = delta.raw().data();
    parallel::parallel_for(
        0, delta.size(), kParticleGrain,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t c = 0; c < nchunks; ++c) {
            const double* part = partials[c].raw().data();
            for (std::size_t i = begin; i < end; ++i) out[i] += part[i];
          }
        });
  }

  // rho/rho_mean - 1 (total mass 1 spread over n^3 cells gives mean 1).
  double* out = delta.raw().data();
  parallel::parallel_for(0, delta.size(), kParticleGrain,
                         [out](std::size_t begin, std::size_t end) {
                           for (std::size_t i = begin; i < end; ++i) {
                             out[i] -= 1.0;
                           }
                         });
  return delta;
}

math::Grid3<double> solve_poisson(math::Grid3<double> delta,
                                  double rhs_factor) {
  const std::size_t n = delta.n();
  // std::complex converts each double to (value, +0.0): one pass, no fill.
  std::vector<math::Complex> field(delta.raw().begin(), delta.raw().end());
  math::Complex* f = field.data();
  math::fft3(field, n, false);

  // Discrete spectral Green function: phi_k = -rhs / k_eff^2 with the
  // exact continuum k; k=0 mode (mean) is gauge and set to zero. k1d[n-i]
  // is -k1d[i] exactly, so a squared component depends only on the class
  // c = min(i, n-i) of its index, and k2[c] holds it. Cells whose three
  // indices fall in the same classes share one factor, computed once:
  // (n/2+1)^3 divisions instead of n^3. Class a covers planes a and n - a,
  // class b rows b and n - b, class c columns c and n - c; classes 0 and
  // n/2 stand for one index each. Every cell is multiplied by the factor
  // the per-cell division gave.
  const std::size_t h = n / 2;
  const double two_pi = 2.0 * M_PI;
  std::vector<double> k2v(h + 1);
  double* k2 = k2v.data();
  for (std::size_t c = 0; c <= h; ++c) {
    const double k = two_pi * static_cast<double>(math::freq_index(c, n));
    k2[c] = k * k;
  }
  parallel::parallel_for(
      0, h + 1, 1, [=](std::size_t a_begin, std::size_t a_end) {
        for (std::size_t a = a_begin; a < a_end; ++a) {
          for (std::size_t b = 0; b <= h; ++b) {
            const std::size_t planes[] = {a, n - a};
            const std::size_t lines[] = {b, n - b};
            math::Complex* rows[4];
            std::size_t nrows = 0;
            for (std::size_t ii = 0; ii < (a == 0 || a == h ? 1 : 2); ++ii) {
              for (std::size_t jj = 0; jj < (b == 0 || b == h ? 1 : 2); ++jj) {
                rows[nrows++] = f + (planes[ii] * n + lines[jj]) * n;
              }
            }
            const double kxy2 = k2[a] + k2[b];
            for (std::size_t c = 0; c <= h; ++c) {
              const double ksq = kxy2 + k2[c];
              const double green = ksq > 0.0 ? -rhs_factor / ksq : 0.0;
              for (std::size_t r = 0; r < nrows; ++r) {
                rows[r][c] *= green;
                if (c != 0 && c != h) rows[r][n - c] *= green;
              }
            }
          }
        }
      });
  math::fft3(field, n, true);

  // phi overwrites delta, which the transform no longer reads: one mesh
  // of doubles per solve instead of two.
  double* pout = delta.raw().data();
  parallel::parallel_for(0, field.size(), kParticleGrain,
                         [=](std::size_t begin, std::size_t end) {
                           for (std::size_t i = begin; i < end; ++i) {
                             pout[i] = f[i].real();
                           }
                         });
  return delta;
}

namespace {

/// What the force gather reads and writes: phi on an n^3 mesh, the
/// particle positions, and one output array per axis.
struct ForceGather {
  const double* phi;
  long n;
  double nd;
  double inv_2h;  // central difference over 2 cells
  const double* x;
  const double* y;
  const double* z;
  double* ax;
  double* ay;
  double* az;
};

/// The force gather of particles [begin, end), one at a time: the
/// reference every instance matches, and the one that runs wherever the
/// AVX-512 instance cannot. The 8 CIC corners and their central
/// differences touch mesh indices i0-1 .. i0+2 on each axis. Each sum
/// starts at 0.0 and subtracts the same terms in the same order as
/// accumulating into the output array would.
void gather_forces_scalar(const ForceGather& f, std::size_t begin,
                          std::size_t end) {
  const long n = f.n;
  const auto at = [g = f.phi, n](long i, long j, long k) {
    return g[(i * n + j) * n + k];
  };
  for (std::size_t p = begin; p < end; ++p) {
    const double gx = f.x[p] * f.nd - 0.5;
    const double gy = f.y[p] * f.nd - 0.5;
    const double gz = f.z[p] * f.nd - 0.5;
    const long i0 = static_cast<long>(std::floor(gx));
    const long j0 = static_cast<long>(std::floor(gy));
    const long k0 = static_cast<long>(std::floor(gz));
    const double fx = gx - static_cast<double>(i0);
    const double fy = gy - static_cast<double>(j0);
    const double fz = gz - static_cast<double>(k0);
    const auto wi = wrapped_run<4>(i0 - 1, n);
    const auto wj = wrapped_run<4>(j0 - 1, n);
    const auto wk = wrapped_run<4>(k0 - 1, n);
    double ax = 0.0, ay = 0.0, az = 0.0;
    for (int di = 0; di <= 1; ++di) {
      const double wx = di ? fx : 1.0 - fx;
      for (int dj = 0; dj <= 1; ++dj) {
        const double wy = dj ? fy : 1.0 - fy;
        for (int dk = 0; dk <= 1; ++dk) {
          const double wz = dk ? fz : 1.0 - fz;
          const double w = wx * wy * wz;
          const long i = wi[di + 1];
          const long j = wj[dj + 1];
          const long k = wk[dk + 1];
          // -grad(phi), central differences on the periodic mesh.
          ax -= w * (at(wi[di + 2], j, k) - at(wi[di], j, k)) * f.inv_2h;
          ay -= w * (at(i, wj[dj + 2], k) - at(i, wj[dj], k)) * f.inv_2h;
          az -= w * (at(i, j, wk[dk + 2]) - at(i, j, wk[dk])) * f.inv_2h;
        }
      }
    }
    f.ax[p] = ax;
    f.ay[p] = ay;
    f.az[p] = az;
  }
}

/// phi at eight flat indices i + j + k, one 64-bit gather. A lambda in
/// the caller would not inherit its target, so this is a target function.
[[gnu::always_inline]] __attribute__((target("avx512f"))) inline __m512d
gather_phi(const double* phi, __m512i i, __m512i j, __m512i k) {
  return _mm512_mask_i64gather_pd(_mm512_setzero_pd(), 0xFF,
                                  _mm512_add_epi64(_mm512_add_epi64(i, j), k),
                                  phi, 8);
}

/// The scalar gather on eight particles at once, one per 64-bit lane, each
/// lane doing the scalar loop's operations in its order: floor as
/// round-to-minus-infinity, the periodic wrap as a masked add or subtract
/// of n (which is math::wrap for indices in [-n, 2n)), and one 64-bit
/// gather per mesh value. A block with a stencil index outside [-n, 2n),
/// a position that is not finite, and the tail of the range run the scalar
/// loop; so does every particle when n * n does not fit the 32-bit
/// multiplies that build the flat indices.
__attribute__((target("avx512f"))) void gather_forces_avx512(
    const ForceGather& f, std::size_t begin, std::size_t end) {
  constexpr std::size_t kBlock = 8;
  const long n = f.n;
  if (n >= 65536) {
    gather_forces_scalar(f, begin, end);
    return;
  }
  const __m512d zero = _mm512_setzero_pd();
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d nd = _mm512_set1_pd(f.nd);
  const __m512d inv_2h = _mm512_set1_pd(f.inv_2h);
  // i0 - 1 >= -n and i0 + 2 < 2n.
  const __m512d lowest = _mm512_set1_pd(static_cast<double>(1 - n));
  const __m512d highest = _mm512_set1_pd(static_cast<double>(2 * n - 3));
  const __m512i vn = _mm512_set1_epi64(n);
  const __m512i vnn = _mm512_set1_epi64(n * n);
  const __m512i izero = _mm512_setzero_si512();

  // One axis of a block: the cell coordinate's fraction and, when every
  // lane's stencil is in range, the four wrapped indices i0-1 .. i0+2.
  struct Axis {
    __m512d frac;
    __m512i index[4];
  };
  std::size_t p = begin;
  for (; p + kBlock <= end; p += kBlock) {
    Axis axes[3];
    const double* pos[3] = {f.x + p, f.y + p, f.z + p};
    __mmask8 in_range = 0xFF;
    __m512d cell[3];
    __m512d below[3];
    for (int a = 0; a < 3; ++a) {
      cell[a] =
          _mm512_sub_pd(_mm512_mul_pd(_mm512_loadu_pd(pos[a]), nd), half);
      below[a] = _mm512_mask_roundscale_pd(
          zero, 0xFF, cell[a], _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
      in_range &= _mm512_cmp_pd_mask(below[a], lowest, _CMP_GE_OQ) &
                  _mm512_cmp_pd_mask(below[a], highest, _CMP_LE_OQ);
    }
    if (in_range != 0xFF) {
      gather_forces_scalar(f, p, p + kBlock);
      continue;
    }
    for (int a = 0; a < 3; ++a) {
      // Exact: below[a] holds integers in (-65536, 131072).
      const __m256i i0 = _mm512_mask_cvtpd_epi32(_mm256_setzero_si256(),
                                                 0xFF, below[a]);
      axes[a].frac = _mm512_sub_pd(
          cell[a], _mm512_mask_cvtepi32_pd(zero, 0xFF, i0));
      const __m512i i0_64 = _mm512_mask_cvtepi32_epi64(izero, 0xFF, i0);
      for (int o = 0; o < 4; ++o) {
        __m512i i = _mm512_add_epi64(i0_64, _mm512_set1_epi64(o - 1));
        i = _mm512_mask_add_epi64(i, _mm512_cmplt_epi64_mask(i, izero), i,
                                  vn);
        i = _mm512_mask_sub_epi64(i, _mm512_cmpge_epi64_mask(i, vn), i, vn);
        axes[a].index[o] = i;
      }
    }
    // Flat index (i * n + j) * n + k as i * n^2 + j * n + k: the wrapped
    // indices and n^2 fit 32 bits, so one 32x32 -> 64-bit multiply each.
    __m512i ii[4];
    __m512i jj[4];
    for (int o = 0; o < 4; ++o) {
      ii[o] = _mm512_maskz_mul_epu32(0xFF, axes[0].index[o], vnn);
      jj[o] = _mm512_maskz_mul_epu32(0xFF, axes[1].index[o], vn);
    }
    const __m512i* kk = axes[2].index;
    const __m512d fx = axes[0].frac;
    const __m512d fy = axes[1].frac;
    const __m512d fz = axes[2].frac;
    __m512d ax = zero;
    __m512d ay = zero;
    __m512d az = zero;
    for (int di = 0; di <= 1; ++di) {
      const __m512d wx = di ? fx : _mm512_sub_pd(one, fx);
      for (int dj = 0; dj <= 1; ++dj) {
        const __m512d wy = dj ? fy : _mm512_sub_pd(one, fy);
        for (int dk = 0; dk <= 1; ++dk) {
          const __m512d wz = dk ? fz : _mm512_sub_pd(one, fz);
          const __m512d w = _mm512_mul_pd(_mm512_mul_pd(wx, wy), wz);
          const __m512i i = ii[di + 1];
          const __m512i j = jj[dj + 1];
          const __m512i k = kk[dk + 1];
          const __m512d dx =
              _mm512_sub_pd(gather_phi(f.phi, ii[di + 2], j, k),
                            gather_phi(f.phi, ii[di], j, k));
          const __m512d dy =
              _mm512_sub_pd(gather_phi(f.phi, i, jj[dj + 2], k),
                            gather_phi(f.phi, i, jj[dj], k));
          const __m512d dz =
              _mm512_sub_pd(gather_phi(f.phi, i, j, kk[dk + 2]),
                            gather_phi(f.phi, i, j, kk[dk]));
          ax = _mm512_sub_pd(ax, _mm512_mul_pd(_mm512_mul_pd(w, dx), inv_2h));
          ay = _mm512_sub_pd(ay, _mm512_mul_pd(_mm512_mul_pd(w, dy), inv_2h));
          az = _mm512_sub_pd(az, _mm512_mul_pd(_mm512_mul_pd(w, dz), inv_2h));
        }
      }
    }
    _mm512_storeu_pd(f.ax + p, ax);
    _mm512_storeu_pd(f.ay + p, ay);
    _mm512_storeu_pd(f.az + p, az);
  }
  gather_forces_scalar(f, p, end);
}

}  // namespace

std::array<std::vector<double>, 3> interpolate_forces(
    const math::Grid3<double>& phi, const ParticleSet& particles) {
  return interpolate_forces(math::host_isa(), phi, particles);
}

std::array<std::vector<double>, 3> interpolate_forces(
    math::Isa isa, const math::Grid3<double>& phi,
    const ParticleSet& particles) {
  GC_CHECK_MSG(math::host_supports(isa),
               "interpolate_forces: the host cannot run this ISA");
  std::array<std::vector<double>, 3> acc;
  for (auto& a : acc) a.assign(particles.size(), 0.0);
  const auto n = static_cast<long>(phi.n());
  const ForceGather f{phi.raw().data(), n,
                      static_cast<double>(n), static_cast<double>(n) / 2.0,
                      particles.x.data(), particles.y.data(),
                      particles.z.data(), acc[0].data(),
                      acc[1].data(), acc[2].data()};
  // Pure gather: reads phi, writes each particle's entries only.
  void (*gather)(const ForceGather&, std::size_t, std::size_t) =
      isa == math::Isa::kAvx512 ? gather_forces_avx512 : gather_forces_scalar;
  parallel::parallel_for(0, particles.size(), kParticleGrain,
                         [&f, gather](std::size_t begin, std::size_t end) {
                           gather(f, begin, end);
                         });
  return acc;
}

std::array<std::vector<double>, 3> PmSolver::accelerations(
    const ParticleSet& particles, double a) const {
  const double rhs = 1.5 * options_.omega_m / a;
  const math::Grid3<double> phi =
      solve_poisson(cic_deposit(particles, options_.grid_n), rhs);
  return interpolate_forces(phi, particles);
}

void PmSolver::kick(ParticleSet& particles,
                    const std::array<std::vector<double>, 3>& acc, double a,
                    double da) const {
  // p = a^2 dx/dt obeys dp/dt = -grad(phi), so dp/da = -grad(phi)/(a E).
  const double factor = da / (a * cosmology_.efunc(a));
  parallel::parallel_for(0, particles.size(), kParticleGrain,
                         [&](std::size_t begin, std::size_t end) {
                           for (std::size_t p = begin; p < end; ++p) {
                             particles.px[p] += acc[0][p] * factor;
                             particles.py[p] += acc[1][p] * factor;
                             particles.pz[p] += acc[2][p] * factor;
                           }
                         });
}

void PmSolver::drift(ParticleSet& particles, double a, double da) const {
  const double factor = da / (a * a * a * cosmology_.efunc(a));
  parallel::parallel_for(0, particles.size(), kParticleGrain,
                         [&](std::size_t begin, std::size_t end) {
                           for (std::size_t p = begin; p < end; ++p) {
                             particles.x[p] += particles.px[p] * factor;
                             particles.y[p] += particles.py[p] * factor;
                             particles.z[p] += particles.pz[p] * factor;
                           }
                         });
  particles.wrap_positions();
}

void PmSolver::step(ParticleSet& particles, double a, double da,
                    Forces& forces) const {
  // KDK: half kick at a, full drift at midpoint, half kick at a + da. The
  // closing kick's forces are the next opening kick's, bit for bit: a kick
  // moves only momenta, the drift has already wrapped the positions, and
  // the caller's `a += da` is the same IEEE sum as a + da here.
  if (forces.a != a || forces.acc[0].size() != particles.size()) {
    forces.acc = accelerations(particles, a);
    forces.a = a;
  }
  kick(particles, forces.acc, a, 0.5 * da);
  drift(particles, a + 0.5 * da, da);
  forces = Forces{};  // free before evaluating: one set of forces alive
  const double a1 = a + da;
  forces.acc = accelerations(particles, a1);
  forces.a = a1;
  kick(particles, forces.acc, a1, 0.5 * da);
}

double momentum_from_kms(double v_kms, double a, double box_mpc) {
  return a * v_kms / (100.0 * box_mpc);
}

double kms_from_momentum(double p, double a, double box_mpc) {
  return p * 100.0 * box_mpc / a;
}

}  // namespace gc::ramses
