// Simulation driver: the "RAMSES run" a SED's solve function launches.
//
// Reads run parameters (programmatically or from a .nml namelist, the
// first IN argument of ramsesZoom2), generates GRAFIC initial conditions,
// integrates the N-body system with the PM solver, and emits snapshots at
// the requested expansion factors. run() is serial; run_parallel() spawns
// a MiniMPI world and uses the Peano-Hilbert decomposition, reproducing
// the paper's per-cluster MPI execution at laptop scale.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "cosmo/cosmology.hpp"
#include "grafic/ic.hpp"
#include "io/namelist.hpp"
#include "ramses/snapshot.hpp"

namespace gc::ramses {

struct RunParams {
  int npart_dim = 32;        ///< particles per dimension (paper: 128)
  int pm_grid = 64;          ///< PM mesh (>= npart_dim for force accuracy)
  double box_mpc = 100.0;    ///< comoving box (paper: 100 Mpc/h)
  double a_start = 0.05;     ///< z = 19
  double a_end = 1.0;        ///< z = 0
  int steps = 64;            ///< leapfrog steps (log-spaced in a)
  /// Adaptive time stepping (RAMSES-style courant control): the step is
  /// chosen so no particle moves more than `cfl` mesh cells per step;
  /// `steps` then only sets the coarsest (initial) schedule.
  bool adaptive = false;
  double cfl = 0.25;
  std::vector<double> aout;  ///< snapshot expansion factors (always +a_end)
  int zoom_levels = 0;       ///< nested IC boxes (0 = single level)
  grafic::Vec3 zoom_centre;  ///< base-box Mpc/h
  cosmo::Params cosmology;
  std::uint64_t seed = 1234;

  /// Parses the &RUN_PARAMS / &ZOOM_PARAMS groups of a RAMSES-style
  /// namelist; unknown keys are ignored, missing keys keep defaults.
  static gc::Result<RunParams> from_namelist(const io::Namelist& nml);

  /// Writes the equivalent namelist text (what the DIET client ships).
  [[nodiscard]] std::string to_namelist() const;
};

struct RunResult {
  std::vector<Snapshot> snapshots;  ///< at each aout, in order
  std::size_t particle_count = 0;
  int steps_taken = 0;
  double final_imbalance = 1.0;     ///< parallel runs: max/mean rank load
};

using StepCallback =
    std::function<void(int step, double a, const ParticleSet&)>;

/// Sees the live particle set at each output expansion factor, in order.
using OutputCallback = std::function<void(double aexp, const ParticleSet&)>;

/// Serial run; every output is retained in RunResult::snapshots.
RunResult run_simulation(const RunParams& params,
                         const StepCallback& on_step = nullptr);

/// Serial run that streams its outputs to `on_output` instead of keeping
/// them (RunResult::snapshots stays empty): a consumer that reduces each
/// output at once holds one particle set, not one per output.
RunResult run_simulation(const RunParams& params,
                         const OutputCallback& on_output,
                         const StepCallback& on_step = nullptr);

/// Parallel run over `nranks` MiniMPI ranks (threads). Results are
/// identical to the serial run up to the non-associativity of the mesh
/// reduction.
RunResult run_simulation_parallel(const RunParams& params, int nranks);

}  // namespace gc::ramses
