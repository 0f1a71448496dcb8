// Particle storage for the N-body solver.
//
// Structure-of-arrays layout; positions are comoving in box units [0, 1),
// momenta are the code momentum p = a^2 dx/dt in units of (box length x
// H0) — see pm.hpp for the unit system. Masses are in units of the total
// box mass (a uniform 128^3 run has mass 1/128^3 per particle; zoom levels
// carry lighter particles).
#pragma once

#include <cstdint>
#include <vector>

#include "common/log.hpp"
#include "math/isa.hpp"

namespace gc::ramses {

struct ParticleSet {
  std::vector<double> x, y, z;     ///< comoving position, box units [0,1)
  std::vector<double> px, py, pz;  ///< code momentum a^2 dx/dt
  std::vector<double> mass;        ///< fraction of the total box mass
  std::vector<std::uint64_t> id;   ///< globally unique, stable across time
  std::vector<std::int32_t> level; ///< IC level the particle came from

  [[nodiscard]] std::size_t size() const { return x.size(); }

  void reserve(std::size_t n) {
    x.reserve(n); y.reserve(n); z.reserve(n);
    px.reserve(n); py.reserve(n); pz.reserve(n);
    mass.reserve(n); id.reserve(n); level.reserve(n);
  }

  void push_back(double xi, double yi, double zi, double pxi, double pyi,
                 double pzi, double mi, std::uint64_t idi,
                 std::int32_t leveli) {
    x.push_back(xi); y.push_back(yi); z.push_back(zi);
    px.push_back(pxi); py.push_back(pyi); pz.push_back(pzi);
    mass.push_back(mi); id.push_back(idi); level.push_back(leveli);
  }

  void append(const ParticleSet& other) {
    x.insert(x.end(), other.x.begin(), other.x.end());
    y.insert(y.end(), other.y.begin(), other.y.end());
    z.insert(z.end(), other.z.begin(), other.z.end());
    px.insert(px.end(), other.px.begin(), other.px.end());
    py.insert(py.end(), other.py.begin(), other.py.end());
    pz.insert(pz.end(), other.pz.begin(), other.pz.end());
    mass.insert(mass.end(), other.mass.begin(), other.mass.end());
    id.insert(id.end(), other.id.begin(), other.id.end());
    level.insert(level.end(), other.level.begin(), other.level.end());
  }

  void clear() {
    x.clear(); y.clear(); z.clear();
    px.clear(); py.clear(); pz.clear();
    mass.clear(); id.clear(); level.clear();
  }

  /// Total mass (1.0 for a complete box).
  [[nodiscard]] double total_mass() const {
    double m = 0.0;
    for (const double v : mass) m += v;
    return m;
  }

  /// Wraps all positions back into [0, 1): x - floor(x), and 0.0 where
  /// that rounds up to 1.0. Runs the host_isa() instance.
  void wrap_positions();

  /// The same wrap with the `isa` instance, which the host must support:
  /// AVX-512F has a vector instance, SSE2 runs the scalar loop.
  /// Every instance gives the same bytes.
  void wrap_positions(math::Isa isa);

  /// Internal consistency: equal array lengths, positions in range.
  [[nodiscard]] bool valid() const;
};

}  // namespace gc::ramses
