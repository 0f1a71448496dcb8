#include "grafic/ic.hpp"

#include <cmath>

#include "common/log.hpp"
#include "math/fft.hpp"
#include "math/grid3.hpp"
#include "parallel/pool.hpp"

namespace gc::grafic {

namespace {

/// Frequencies kf * freq_index(i, n) for every grid index, hoisted out of
/// the k-space loops (kx/ky are invariant in the j/l loops).
std::vector<double> frequency_table(std::size_t n, double kf) {
  std::vector<double> k1d(n);
  for (std::size_t i = 0; i < n; ++i) {
    k1d[i] = kf * static_cast<double>(math::freq_index(i, n));
  }
  return k1d;
}

}  // namespace

std::array<std::vector<float>, 3> second_order_displacement(
    const std::vector<float>& delta, int n, double box_mpc) {
  const auto nu = static_cast<std::size_t>(n);
  const double kf = 2.0 * M_PI / box_mpc;
  const std::size_t n3 = nu * nu * nu;
  const std::vector<double> k1d = frequency_table(nu, kf);

  // Forward transform of delta (= -laplace(phi) up to the growth factor;
  // we work with phi normalized so that delta = -lap phi, i.e. phi_k =
  // delta_k / k^2).
  std::vector<math::Complex> dk(n3);
  parallel::parallel_for(0, n3, 8192,
                         [&](std::size_t begin, std::size_t end) {
                           for (std::size_t i = begin; i < end; ++i) {
                             dk[i] = {delta[i], 0.0};
                           }
                         });
  math::fft3(dk, nu, false);

  // phi,ab in real space for one index pair (a, b).
  auto second_derivative = [&](int a, int b) {
    std::vector<math::Complex> field(n3);
    for (std::size_t i = 0; i < nu; ++i) {
      const double ki = k1d[i];
      for (std::size_t j = 0; j < nu; ++j) {
        const double kj = k1d[j];
        const double kij2 = ki * ki + kj * kj;
        const math::Complex* drow = dk.data() + (i * nu + j) * nu;
        math::Complex* frow = field.data() + (i * nu + j) * nu;
        for (std::size_t l = 0; l < nu; ++l) {
          const double kl = k1d[l];
          const double k2 = kij2 + kl * kl;
          const double kk[3] = {ki, kj, kl};
          // phi_k = delta_k / k^2; phi,ab <-> -k_a k_b phi_k.
          frow[l] = k2 > 0.0
                        ? drow[l] * (-kk[static_cast<size_t>(a)] *
                                     kk[static_cast<size_t>(b)] / k2)
                        : math::Complex(0.0, 0.0);
        }
      }
    }
    math::fft3(field, nu, true);
    std::vector<double> out(n3);
    for (std::size_t i = 0; i < n3; ++i) out[i] = field[i].real();
    return out;
  };

  // The six independent phi,ab fields: one pool task each (the nested FFTs
  // run inline on their worker, so each field's arithmetic is identical at
  // any thread count).
  static constexpr int kPairs[6][2] = {{0, 0}, {1, 1}, {2, 2},
                                       {0, 1}, {0, 2}, {1, 2}};
  std::array<std::vector<double>, 6> fields;
  parallel::parallel_for(0, 6, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t f = begin; f < end; ++f) {
      fields[f] = second_derivative(kPairs[f][0], kPairs[f][1]);
    }
  });
  const auto& pxx = fields[0];
  const auto& pyy = fields[1];
  const auto& pzz = fields[2];
  const auto& pxy = fields[3];
  const auto& pxz = fields[4];
  const auto& pyz = fields[5];

  // S2 = phi,xx phi,yy + phi,xx phi,zz + phi,yy phi,zz
  //      - phi,xy^2 - phi,xz^2 - phi,yz^2.
  std::vector<math::Complex> s2(n3);
  parallel::parallel_for(
      0, n3, 8192, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          s2[i] = {pxx[i] * pyy[i] + pxx[i] * pzz[i] + pyy[i] * pzz[i] -
                       pxy[i] * pxy[i] - pxz[i] * pxz[i] - pyz[i] * pyz[i],
                   0.0};
        }
      });
  math::fft3(s2, nu, false);

  // psi2 = grad(laplace^-1 S2): psi2_k = -i k / k^2 * S2_k... with the
  // standard sign convention matching psi1 = i k / k^2 delta_k the 2LPT
  // displacement enters as x = q + D psi1 - (3/7) D^2 psi2 with
  // psi2 = grad(lap^-1 S2); we return grad(lap^-1 S2) itself.
  std::array<std::vector<float>, 3> psi2;
  std::vector<math::Complex> component(n3);
  for (int axis = 0; axis < 3; ++axis) {
    parallel::parallel_for(
        0, nu, 1, [&](std::size_t i_begin, std::size_t i_end) {
          for (std::size_t i = i_begin; i < i_end; ++i) {
            const double ki = k1d[i];
            for (std::size_t j = 0; j < nu; ++j) {
              const double kj = k1d[j];
              const double kij2 = ki * ki + kj * kj;
              const math::Complex* srow = s2.data() + (i * nu + j) * nu;
              math::Complex* crow = component.data() + (i * nu + j) * nu;
              for (std::size_t l = 0; l < nu; ++l) {
                const double kl = k1d[l];
                const double k2 = kij2 + kl * kl;
                const double kk[3] = {ki, kj, kl};
                crow[l] = k2 > 0.0
                              ? math::mul(
                                    math::Complex(
                                        0.0,
                                        -kk[static_cast<size_t>(axis)] / k2),
                                    srow[l])
                              : math::Complex(0.0, 0.0);
              }
            }
          }
        });
    math::fft3(component, nu, true);
    auto& out = psi2[static_cast<size_t>(axis)];
    out.resize(n3);
    parallel::parallel_for(0, n3, 8192,
                           [&](std::size_t begin, std::size_t end) {
                             for (std::size_t i = begin; i < end; ++i) {
                               out[i] = static_cast<float>(component[i].real());
                             }
                           });
  }
  return psi2;
}

double trilinear(const std::vector<float>& grid, int n, double gx, double gy,
                 double gz) {
  const auto wrap = [n](int i) { return static_cast<int>(math::wrap(i, n)); };
  const auto idx = [n, &wrap](int i, int j, int k) {
    return (static_cast<std::size_t>(wrap(i)) * n + wrap(j)) * n + wrap(k);
  };
  const int i0 = static_cast<int>(std::floor(gx));
  const int j0 = static_cast<int>(std::floor(gy));
  const int k0 = static_cast<int>(std::floor(gz));
  const double fx = gx - i0;
  const double fy = gy - j0;
  const double fz = gz - k0;
  double acc = 0.0;
  for (int di = 0; di <= 1; ++di) {
    for (int dj = 0; dj <= 1; ++dj) {
      for (int dk = 0; dk <= 1; ++dk) {
        const double w = (di ? fx : 1.0 - fx) * (dj ? fy : 1.0 - fy) *
                         (dk ? fz : 1.0 - fz);
        acc += w * grid[idx(i0 + di, j0 + dj, k0 + dk)];
      }
    }
  }
  return acc;
}

Generator::Generator(const cosmo::Params& params, std::uint64_t seed)
    : params_(params), cosmology_(params), power_(params), rng_(seed) {}

InitialConditions Generator::single_level(int n, double box_mpc,
                                          double a_start) {
  InitialConditions ic;
  ic.params = params_;
  ic.levels.push_back(
      build_level(0, n, box_mpc, Vec3{0.0, 0.0, 0.0}, a_start, nullptr));
  return ic;
}

InitialConditions Generator::multi_level(int n, double box_mpc,
                                         double a_start, Vec3 centre,
                                         int extra_levels) {
  GC_CHECK(extra_levels >= 0);
  InitialConditions ic;
  ic.params = params_;
  ic.levels.push_back(
      build_level(0, n, box_mpc, Vec3{0.0, 0.0, 0.0}, a_start, nullptr));
  double size = box_mpc;
  for (int l = 1; l <= extra_levels; ++l) {
    size *= 0.5;
    const Vec3 origin{centre.x - 0.5 * size, centre.y - 0.5 * size,
                      centre.z - 0.5 * size};
    ic.levels.push_back(build_level(l, n, size, origin, a_start,
                                    &ic.levels.back()));
  }
  return ic;
}

IcLevel Generator::build_level(int level_index, int n, double box_mpc,
                               Vec3 origin, double a_start,
                               const IcLevel* parent) {
  const double growth = cosmology_.growth(a_start);
  const auto power_at_start = [this, growth](double k) {
    return power_(k) * growth * growth;
  };

  // Small-scale realization: everything for the base level; only modes
  // above the parent's Nyquist for nested levels.
  GrfOptions options;
  if (parent != nullptr) {
    options.k_min = M_PI * static_cast<double>(parent->n) / parent->box_mpc;
  }
  math::Grid3<double> delta =
      gaussian_random_field(n, box_mpc, power_at_start, rng_, options);

  // Long-wavelength conditioning from the parent: resample the parent's
  // delta at this level's cell centres.
  if (parent != nullptr) {
    const auto nu = static_cast<std::size_t>(n);
    const double cell = box_mpc / n;
    const double parent_cell = parent->box_mpc / parent->n;
    parallel::parallel_for(0, nu, 1, [&](std::size_t i_begin,
                                         std::size_t i_end) {
    for (std::size_t i = i_begin; i < i_end; ++i) {
      for (std::size_t j = 0; j < nu; ++j) {
        for (std::size_t k = 0; k < nu; ++k) {
          // Position of this child cell centre in parent grid coordinates
          // (cell centres sit at (idx + 0.5) * cell).
          const double px =
              (origin.x - parent->origin.x + (i + 0.5) * cell) / parent_cell -
              0.5;
          const double py =
              (origin.y - parent->origin.y + (j + 0.5) * cell) / parent_cell -
              0.5;
          const double pz =
              (origin.z - parent->origin.z + (k + 0.5) * cell) / parent_cell -
              0.5;
          delta.at(i, j, k) += trilinear(parent->delta, parent->n, px, py, pz);
        }
      }
    }
    });
  }

  // Zel'dovich displacement: psi(k) = i k / k^2 * delta(k).
  const auto nu = static_cast<std::size_t>(n);
  std::vector<math::Complex> dk(nu * nu * nu);
  parallel::parallel_for(0, dk.size(), 8192,
                         [&](std::size_t begin, std::size_t end) {
                           for (std::size_t idx = begin; idx < end; ++idx) {
                             dk[idx] = math::Complex(delta.raw()[idx], 0.0);
                           }
                         });
  math::fft3(dk, nu, false);

  IcLevel out;
  out.level = level_index;
  out.n = n;
  out.box_mpc = box_mpc;
  out.origin = origin;
  out.a_start = a_start;
  out.delta.resize(delta.size());
  for (std::size_t i = 0; i < delta.size(); ++i) {
    out.delta[i] = static_cast<float>(delta.raw()[i]);
  }

  const double kf = 2.0 * M_PI / box_mpc;
  const std::vector<double> k1d = frequency_table(nu, kf);
  std::vector<math::Complex> psi(nu * nu * nu);
  for (int axis = 0; axis < 3; ++axis) {
    parallel::parallel_for(
        0, nu, 1, [&](std::size_t i_begin, std::size_t i_end) {
          for (std::size_t i = i_begin; i < i_end; ++i) {
            const double ki = k1d[i];
            for (std::size_t j = 0; j < nu; ++j) {
              const double kj = k1d[j];
              const double kij2 = ki * ki + kj * kj;
              const math::Complex* drow = dk.data() + (i * nu + j) * nu;
              math::Complex* prow = psi.data() + (i * nu + j) * nu;
              for (std::size_t l = 0; l < nu; ++l) {
                const double kl = k1d[l];
                const double k2 = kij2 + kl * kl;
                const double kv[3] = {ki, kj, kl};
                if (k2 <= 0.0) {
                  prow[l] = 0.0;
                } else {
                  // i * k / k^2 * delta_k
                  prow[l] =
                      math::mul(math::Complex(0.0, kv[axis] / k2), drow[l]);
                }
              }
            }
          }
        });
    math::fft3(psi, nu, true);

    auto& d = out.disp[static_cast<std::size_t>(axis)];
    auto& v = out.vel[static_cast<std::size_t>(axis)];
    d.resize(psi.size());
    v.resize(psi.size());
    // v = a H(a) f(a) psi; with psi in Mpc/h and H/h = 100 E(a) km/s/Mpc,
    // the h's cancel and v comes out in km/s.
    const double vfact = a_start * 100.0 * cosmology_.efunc(a_start) *
                         cosmology_.growth_rate(a_start);
    for (std::size_t idx = 0; idx < psi.size(); ++idx) {
      d[idx] = static_cast<float>(psi[idx].real());
      v[idx] = static_cast<float>(psi[idx].real() * vfact);
    }
  }

  if (second_order_) {
    // 2LPT: x = q + psi1 - (3/7) psi2 where psi2 is built from the
    // *already grown* delta (so the D^2 scaling is implicit), and the
    // velocity term carries f2 ~ 2 Omega_m(a)^(6/11).
    const auto psi2 = second_order_displacement(out.delta, n, box_mpc);
    const double e = cosmology_.efunc(a_start);
    const double omega_a =
        params_.omega_m / (a_start * a_start * a_start * e * e);
    const double f2 = 2.0 * std::pow(omega_a, 6.0 / 11.0);
    const double v2fact = a_start * 100.0 * e * f2;
    for (int axis = 0; axis < 3; ++axis) {
      auto& d = out.disp[static_cast<std::size_t>(axis)];
      auto& v = out.vel[static_cast<std::size_t>(axis)];
      const auto& p2 = psi2[static_cast<std::size_t>(axis)];
      for (std::size_t idx = 0; idx < d.size(); ++idx) {
        const double correction = -(3.0 / 7.0) * p2[idx];
        d[idx] += static_cast<float>(correction);
        v[idx] += static_cast<float>(correction * v2fact);
      }
    }
  }
  return out;
}

}  // namespace gc::grafic
