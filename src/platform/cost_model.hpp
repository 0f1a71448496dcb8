// Calibrated cost model for RAMSES zoom simulations on the modeled grid.
//
// The DES does not execute the Fortran-scale physics; instead each job's
// virtual duration comes from this model:
//
//     duration = work(spec) / sed_power * amdahl(machines)
//
// where work() is in "power-seconds" (seconds on a 16-machine SED whose
// machines have relative_power 1.0, i.e. Opteron 246). Two anchor points
// are calibrated against Section 5.2:
//   - the first-part 128^3, 100 Mpc/h run took 1h15m11s (4511 s) on the
//     SED that won the first request (Lyon sagittaire, power 1.30);
//   - the second-part sub-simulations averaged 1h24m01s (5041 s) over the
//     11 SEDs, whose mean inverse power is 0.8414.
// Everything else (resolution scaling, zoom-level overhead, parallel
// efficiency) extrapolates from those anchors with standard PM-code
// complexity, and is exercised by the ablation benches.
#pragma once

#include <cmath>

#include "common/rng.hpp"

namespace gc::platform {

struct ZoomJobSpec {
  int resolution = 128;   ///< particles per dimension of the base grid
  double box_mpc = 100.0; ///< comoving box size in Mpc/h
  int zoom_levels = 0;    ///< nested refinement boxes (0 = single level)
};

class RamsesCostModel {
 public:
  struct Tuning {
    /// Power-seconds of the part-1 run (128^3 single level).
    double zoom1_work = 5864.0;
    /// Power-seconds of a part-2 run at its base level.
    double zoom2_work_base = 5870.0;
    /// Additional power-seconds per nested zoom level.
    double zoom2_work_per_level = 60.0;
    /// Amdahl serial fraction of the MPI solver.
    double serial_fraction = 0.05;
    /// Machines a SED controlled in the calibration runs.
    int reference_machines = 16;
    /// Coefficient of variation of the per-job multiplicative jitter.
    double jitter_cv = 0.015;
  };

  RamsesCostModel() = default;
  explicit RamsesCostModel(const Tuning& tuning) : tuning_(tuning) {}

  /// Work of the first, halo-catalog-producing run.
  [[nodiscard]] double zoom1_work(const ZoomJobSpec& spec) const {
    return tuning_.zoom1_work * resolution_scale(spec.resolution);
  }

  /// Work of one re-simulation ("zoom") run.
  [[nodiscard]] double zoom2_work(const ZoomJobSpec& spec) const {
    return (tuning_.zoom2_work_base +
            tuning_.zoom2_work_per_level * spec.zoom_levels) *
           resolution_scale(spec.resolution);
  }

  /// Virtual duration of `work` power-seconds on a SED with machines of
  /// the given relative power.
  [[nodiscard]] double duration(double work, double machine_power,
                                int machines) const {
    const double s = tuning_.serial_fraction;
    const double m = static_cast<double>(machines);
    const double m0 = static_cast<double>(tuning_.reference_machines);
    // Normalized so duration(work, p, reference_machines) == work / p.
    const double scaling = (s + (1.0 - s) * m0 / m) / (s + (1.0 - s));
    return work / machine_power * scaling;
  }

  /// duration() with multiplicative log-normal jitter (mean preserved).
  [[nodiscard]] double duration_with_jitter(double work, double machine_power,
                                            int machines, Rng& rng) const {
    const double d = duration(work, machine_power, machines);
    if (tuning_.jitter_cv <= 0.0) return d;
    return rng.lognormal_with_mean(d, tuning_.jitter_cv);
  }

  [[nodiscard]] const Tuning& tuning() const { return tuning_; }

 private:
  /// PM-code complexity: O(N^3 log N) per step relative to the 128^3
  /// calibration grid.
  [[nodiscard]] static double resolution_scale(int resolution) {
    const double r = static_cast<double>(resolution) / 128.0;
    return r * r * r * (std::log2(static_cast<double>(resolution)) / 7.0);
  }

  Tuning tuning_;
};

}  // namespace gc::platform
