// Particle-Mesh gravity and the cosmological leapfrog.
//
// Unit system (classic PM code units, cf. Klypin & Holtzman 1997):
//   length   : box size L            -> positions x in [0, 1)
//   time     : 1/H0                  -> expansion factor a is the clock
//   momentum : p = a^2 dx/dt         -> in units of L*H0
// With these choices (p = a^2 dx/dt obeys dp/dt = -grad phi),
//   Poisson     :  lap(phi) = (3/2) Omega_m delta / a
//   kick        :  dp/da = -grad(phi) / (a E(a))
//   drift       :  dx/da =  p         / (a^3 E(a))
// and the linear growing mode of delta follows D(a) exactly — which is
// what test_ramses verifies against the cosmo library.
//
// Mass assignment and force interpolation are both Cloud-In-Cell (the
// same kernel on both sides, so momentum is conserved and self-forces
// vanish); the Poisson solve is spectral with the -1/k^2 Green function.
#pragma once

#include <array>
#include <limits>
#include <vector>

#include "cosmo/cosmology.hpp"
#include "math/grid3.hpp"
#include "math/isa.hpp"
#include "ramses/particles.hpp"

namespace gc::ramses {

/// CIC-deposits particle masses onto an n^3 periodic grid; the result is
/// the overdensity field delta = rho/rho_mean - 1 when the set covers the
/// whole box with total mass ~1. Runs the host_isa() instance.
math::Grid3<double> cic_deposit(const ParticleSet& particles, int n);

/// The same deposit with the `isa` instance, which the host must support:
/// AVX-512F has a vector instance, SSE2 runs the scalar loop.
/// Every instance gives the same bytes.
math::Grid3<double> cic_deposit(math::Isa isa, const ParticleSet& particles,
                                int n);

/// Solves lap(phi) = rhs_factor * delta spectrally; returns phi in
/// delta's storage (pass an rvalue to spare the copy).
math::Grid3<double> solve_poisson(math::Grid3<double> delta,
                                  double rhs_factor);

/// Central-difference acceleration -grad(phi), CIC-interpolated to each
/// particle. Returns one array per axis, in phi's units per box length.
/// Runs the host_isa() instance.
std::array<std::vector<double>, 3> interpolate_forces(
    const math::Grid3<double>& phi, const ParticleSet& particles);

/// The same gather with the `isa` instance, which the host must support:
/// AVX-512F has a vector instance, SSE2 runs the scalar loop.
/// Every instance gives the same bytes.
std::array<std::vector<double>, 3> interpolate_forces(
    math::Isa isa, const math::Grid3<double>& phi,
    const ParticleSet& particles);

/// Per-particle accelerations (one array per axis, one entry per
/// particle) and the expansion factor they were computed at: what one
/// leapfrog step hands the next. Default-constructed (a is NaN), it
/// matches no step and the step computes its own.
struct Forces {
  std::array<std::vector<double>, 3> acc;
  double a = std::numeric_limits<double>::quiet_NaN();
};

class PmSolver {
 public:
  struct Options {
    int grid_n = 64;          ///< mesh resolution
    double omega_m = 0.27;
  };

  PmSolver(const cosmo::Cosmology& cosmology, const Options& options)
      : cosmology_(cosmology), options_(options) {}

  /// One kick-drift-kick leapfrog step from a to a + da (in place).
  /// `forces` carries the accelerations from one step to the next: the
  /// opening half-kick uses them when they were computed at exactly `a`
  /// for this many particles (else it computes them), and the step leaves
  /// the forces at a + da in them for the next step's opening half-kick.
  void step(ParticleSet& particles, double a, double da,
            Forces& forces) const;

  [[nodiscard]] const Options& options() const { return options_; }

 private:
  std::array<std::vector<double>, 3> accelerations(
      const ParticleSet& particles, double a) const;
  void kick(ParticleSet& particles,
            const std::array<std::vector<double>, 3>& acc, double a,
            double da) const;
  void drift(ParticleSet& particles, double a, double da) const;

  const cosmo::Cosmology& cosmology_;
  Options options_;
};

/// Converts a peculiar velocity in km/s to code momentum p = a^2 dx/dt
/// for a box of box_mpc (Mpc/h): p = a * v / (100 * box_mpc).
double momentum_from_kms(double v_kms, double a, double box_mpc);
double kms_from_momentum(double p, double a, double box_mpc);

}  // namespace gc::ramses
