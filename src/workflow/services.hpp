// The paper's two DIET services.
//
// "The cosmological simulation is divided in two services: ramsesZoom1 and
// ramsesZoom2 [...] The first one is used to determine interesting parts
// of the universe, while the second is used to study these parts in
// details." (Section 4.2.1.)
//
// Profiles follow the paper exactly:
//   ramsesZoom2: arg.profile = diet_profile_desc_alloc("ramsesZoom2",6,6,8)
//     0 FILE  namelist with RAMSES parameters           (IN)
//     1 INT   resolution (particles per dimension)      (IN)
//     2 INT   size of the initial conditions, Mpc/h     (IN)
//     3 INT   centre cx (grid cells)                    (IN)
//     4 INT   centre cy                                 (IN)
//     5 INT   centre cz                                 (IN)
//     6 INT   number of zoom levels (nested boxes)      (IN)
//     7 FILE  tarball with post-processed results       (OUT)
//     8 INT   error code (0 = success)                  (OUT)
//   ramsesZoom1 (the low-resolution first part):
//     0 FILE namelist (IN), 1 INT resolution (IN), 2 INT size (IN),
//     3 FILE halo catalog (OUT), 4 INT error code (OUT)
//
// Two execution modes share the registration code:
//   kReal : the solve functions actually run GRAFIC -> PM/N-body ->
//           HaloMaker -> TreeMaker -> GalaxyMaker and tar the results
//           (examples; laptop-scale resolutions). The numerics start as a
//           parallel::Job when the solve function runs and are joined at
//           the call's completion, so calls in flight on different SEDs
//           compute side by side;
//   kSim  : the solve functions charge the calibrated cost model to the
//           virtual clock and fabricate statistically-plausible outputs
//           (the Grid'5000-scale benches).
#pragma once

#include <string>

#include "diet/service.hpp"
#include "platform/cost_model.hpp"

namespace gc::workflow {

enum class ServiceMode { kReal, kSim };

struct ServiceOptions {
  ServiceMode mode = ServiceMode::kSim;
  platform::RamsesCostModel cost_model;
  /// Modeled size of the zoom2 result tarball (charged to the network).
  std::int64_t tarball_bytes = 200 * 1024 * 1024;
  /// Modeled size of the zoom1 halo catalog file.
  std::int64_t catalog_bytes = 4 * 1024 * 1024;
  /// Directory for real outputs (namelists, snapshots, tars).
  std::string work_dir = "/tmp/gridcosmo";
  /// Real mode: cap the actually-simulated resolution (the profile still
  /// carries the requested one; the run is scaled down so examples finish
  /// in seconds).
  int real_max_resolution = 32;
  int real_steps = 24;
  /// Fabricated zoom1 catalogs contain at least this many halos so the
  /// campaign can always pick its 100 re-simulation targets.
  int sim_min_halos = 128;
  /// Persistence of the services' OUT files (zoom1 halo catalog, zoom2
  /// result tarball). DIET_PERSISTENT keeps the snapshot on the SED and
  /// registers it in the hierarchy's replica catalog, so a later request
  /// (zoom2 reading zoom1's outputs, a re-run) finds the bytes in place
  /// instead of re-shipping them across the WAN.
  diet::Persistence output_mode = diet::Persistence::kVolatile;
};

/// Builds the two profile descriptions (shared by clients and servers —
/// "clients and servers must use the same problem description").
diet::ProfileDesc zoom1_profile_desc();
diet::ProfileDesc zoom2_profile_desc();

/// Registers ramsesZoom1 and ramsesZoom2 (with plug-in performance
/// estimators for the MCT scheduler) into `table`.
gc::Status register_services(diet::ServiceTable& table,
                             const ServiceOptions& options);

/// Client-side profile builders. `namelist_mode` selects the persistence
/// of the input file: DIET_PERSISTENT lets repeat calls to the same SED
/// ship an id instead of the bytes (bench B1 measures the effect when the
/// input is the pre-generated multi-level IC archive instead of a small
/// namelist).
diet::Profile make_zoom1_profile(
    const std::string& namelist_path, std::int64_t namelist_bytes,
    int resolution, int size_mpc,
    diet::Persistence namelist_mode = diet::Persistence::kVolatile);
diet::Profile make_zoom2_profile(
    const std::string& namelist_path, std::int64_t namelist_bytes,
    int resolution, int size_mpc, int cx, int cy, int cz, int nb_box,
    diet::Persistence namelist_mode = diet::Persistence::kVolatile);

}  // namespace gc::workflow
