// Snapshot output.
//
// "The result of the simulation is a set of 'snapshots'. Given a list of
// time steps (or expansion factor), RAMSES outputs the current state of
// the universe [...] in Fortran binary files. These files need
// post-processing with GALICS softwares" (Section 3). Snapshots here
// carry the full particle state at an expansion factor, in memory, where
// the halo finder reads them.
#pragma once

#include "cosmo/cosmology.hpp"
#include "ramses/particles.hpp"

namespace gc::ramses {

struct Snapshot {
  double aexp = 0.0;
  double box_mpc = 0.0;
  cosmo::Params params;
  ParticleSet particles;
};

}  // namespace gc::ramses
