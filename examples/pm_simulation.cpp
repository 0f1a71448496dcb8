// Run the RAMSES-style solver directly: GRAFIC initial conditions, PM
// N-body integration, AMR statistics, and a halo catalog at z = 0. The
// kernels run on the shared thread pool; output is byte-identical at any
// thread count.
//
//   ./pm_simulation                          # 16^3, serial
//   ./pm_simulation --n 32 --steps 32        # bigger run
//   ./pm_simulation --zoom 2                 # nested zoom ICs
//   ./pm_simulation --threads 4              # pool threads (= GC_THREADS)
//   ./pm_simulation --trace out.json --metrics m.txt   # observability
//   ./pm_simulation --timeseries t.jsonl --metrics-interval 0.5
//                                            # wall-clock metrics curves
#include <cstdio>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "obs/session.hpp"
#include "obs/timeseries.hpp"
#include "parallel/pool.hpp"
#include "cosmo/massfunction.hpp"
#include "halo/halomaker.hpp"
#include "halo/overdensity.hpp"
#include "ramses/amr.hpp"
#include "ramses/pm.hpp"
#include "ramses/simulation.hpp"

int main(int argc, char** argv) {
  gc::set_default_log_level(gc::LogLevel::kWarn);
  const gc::CliArgs args(argc, argv);
  const gc::obs::Session obs = gc::obs::Session::from_cli(args);
  // No DES calendar here, so --timeseries samples on the wall clock; the
  // session's finish() stops the thread and writes the JSONL.
  if (obs.timeseries_active()) {
    gc::obs::TimeSeries::instance().start_wall_sampler();
  }

  gc::ramses::RunParams params;
  params.npart_dim = static_cast<int>(args.get_int("n", 16));
  if ((params.npart_dim & (params.npart_dim - 1)) != 0 ||
      params.npart_dim < 4) {
    std::fprintf(stderr, "--n must be a power of two >= 4 (got %d)\n",
                 params.npart_dim);
    return 1;
  }
  params.pm_grid = static_cast<int>(args.get_int("grid", 2 * params.npart_dim));
  params.box_mpc = args.get_double("box", 100.0);
  params.steps = static_cast<int>(args.get_int("steps", 24));
  params.a_start = args.get_double("astart", 0.1);
  params.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  params.zoom_levels = static_cast<int>(args.get_int("zoom", 0));
  params.zoom_centre = {params.box_mpc / 2, params.box_mpc / 2,
                        params.box_mpc / 2};
  params.aout = {0.5};
  // 0 keeps the default (GC_THREADS env var, else hardware concurrency).
  gc::parallel::set_thread_count(
      static_cast<std::size_t>(args.get_int("threads", 0)));

  std::printf("PM/N-body: %d^3 particles, %d^3 mesh, box %.0f Mpc/h, "
              "a %.2f -> 1.0 in %d steps, %d zoom level(s), "
              "%zu pool thread(s)\n",
              params.npart_dim, params.pm_grid, params.box_mpc,
              params.a_start, params.steps, params.zoom_levels,
              gc::parallel::thread_count());

  const gc::ramses::RunResult result = gc::ramses::run_simulation(params);
  std::printf("ran %d steps over %zu particles; %zu snapshots\n\n",
              result.steps_taken, result.particle_count,
              result.snapshots.size());

  const gc::ramses::Snapshot& final_snap = result.snapshots.back();

  // AMR view of the final state.
  gc::ramses::AmrOptions amr_options;
  amr_options.levelmin = 3;
  amr_options.levelmax = 9;
  const gc::ramses::AmrTree tree(final_snap.particles, amr_options);
  std::printf("AMR tree at a=%.2f: %zu cells, %zu leaves, levels %d..%d\n",
              final_snap.aexp, tree.cells().size(), tree.leaf_count(),
              amr_options.levelmin, tree.max_level());
  const auto per_level = tree.cells_per_level();
  for (std::size_t level = 0; level < per_level.size(); ++level) {
    if (per_level[level] > 0) {
      std::printf("  level %2zu: %8zu cells\n", level, per_level[level]);
    }
  }
  std::printf("\n");

  // HaloMaker on the final snapshot.
  std::vector<double> vx(final_snap.particles.size());
  std::vector<double> vy(final_snap.particles.size());
  std::vector<double> vz(final_snap.particles.size());
  for (std::size_t i = 0; i < final_snap.particles.size(); ++i) {
    vx[i] = gc::ramses::kms_from_momentum(final_snap.particles.px[i],
                                          final_snap.aexp,
                                          final_snap.box_mpc);
    vy[i] = gc::ramses::kms_from_momentum(final_snap.particles.py[i],
                                          final_snap.aexp,
                                          final_snap.box_mpc);
    vz[i] = gc::ramses::kms_from_momentum(final_snap.particles.pz[i],
                                          final_snap.aexp,
                                          final_snap.box_mpc);
  }
  const gc::halo::ParticleView view{
      &final_snap.particles.x,    &final_snap.particles.y,
      &final_snap.particles.z,    &vx,
      &vy,                        &vz,
      &final_snap.particles.mass, &final_snap.particles.id};
  const gc::halo::HaloCatalog catalog = gc::halo::find_halos(
      view, final_snap.aexp, final_snap.box_mpc, gc::halo::FofOptions{0.2, 8});
  std::printf("HaloMaker: %zu halos (FoF b=0.2, >= 8 particles)\n",
              catalog.halos.size());
  std::printf("%s", gc::halo::catalog_to_text(catalog).c_str());

  // Spherical-overdensity masses and the Press-Schechter cross-check.
  const auto so = gc::halo::so_properties(view, catalog, 200.0);
  gc::cosmo::MassFunction mass_function(params.cosmology);
  const double box_mass =
      mass_function.mean_density() * std::pow(params.box_mpc, 3);
  std::printf("\nM200 (SO) per halo [Msun/h]:");
  for (const auto& properties : so) {
    std::printf(" %.2e", properties.mass * box_mass);
  }
  std::printf("\n");
  if (!catalog.halos.empty()) {
    const double min_mass = catalog.halos.back().mass * box_mass;
    std::printf("Press-Schechter check: %zu halos found above %.2e Msun/h; "
                "PS expects %.1f in this volume at a=%.2f\n",
                catalog.halos.size(), min_mass,
                mass_function.count_above(min_mass, params.box_mpc,
                                          final_snap.aexp),
                final_snap.aexp);
  }
  return 0;
}
