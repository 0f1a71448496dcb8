// Quickstart: write a DIET server and client exactly like the paper.
//
// This example reproduces Section 4 ("Interfacing RAMSES within DIET") at
// laptop scale: it defines the ramsesZoom1 service with the paper's
// DIET_server.h API (profile description, service table, synchronous
// solve function), deploys MA + LA + a SED in-process on the DES, then
// acts as the client of Section 4.3 (diet_initialize / diet_profile_alloc /
// diet_scalar_set / diet_file_set / diet_call / diet_file_get).
//
// diet_call runs the simulation until the call completes. The solve
// function runs the real pipeline at its completion event, in zero
// modeled time: GRAFIC initial conditions -> PM/N-body -> HaloMaker; a
// 16^3 run finishes in a couple of seconds.
//
//   ./quickstart [--resolution 16] [--box 100]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "des/engine.hpp"
#include "diet/agent.hpp"
#include "diet/capi.hpp"
#include "halo/halomaker.hpp"
#include "ramses/loader.hpp"
#include "ramses/pm.hpp"
#include "ramses/simulation.hpp"
#include "sched/policy.hpp"

namespace {

std::string g_work_dir;

// ---- the server side of Section 4.2: a synchronous solve function ----------

int solve_ramsesZoom1(diet_profile_t* pb) {
  /* Data downloading */
  char* namelist_path = nullptr;
  std::size_t namelist_size = 0;
  if (diet_file_get(diet_parameter(pb, 0), nullptr, &namelist_size,
                    &namelist_path) != 0) {
    return 1;
  }
  const int* resolution = nullptr;
  const int* box = nullptr;
  diet_scalar_get(diet_parameter(pb, 1), &resolution, nullptr);
  diet_scalar_get(diet_parameter(pb, 2), &box, nullptr);
  std::printf("[server] solve_ramsesZoom1(resolution=%d, size=%d Mpc/h, "
              "namelist=%s)\n",
              *resolution, *box, namelist_path);

  /* Computation: GRAFIC ICs -> PM N-body -> HaloMaker */
  gc::ramses::RunParams params;
  params.npart_dim = *resolution;
  params.pm_grid = 2 * *resolution;
  params.box_mpc = *box;
  params.a_start = 0.1;
  params.steps = 16;
  params.seed = 2007;
  const gc::ramses::RunResult run = gc::ramses::run_simulation(params);
  std::free(namelist_path);
  if (run.snapshots.empty()) return 2;

  const gc::ramses::Snapshot& snap = run.snapshots.back();
  std::vector<double> vx(snap.particles.size());
  std::vector<double> vy(snap.particles.size());
  std::vector<double> vz(snap.particles.size());
  for (std::size_t i = 0; i < snap.particles.size(); ++i) {
    vx[i] = gc::ramses::kms_from_momentum(snap.particles.px[i], snap.aexp,
                                          snap.box_mpc);
    vy[i] = gc::ramses::kms_from_momentum(snap.particles.py[i], snap.aexp,
                                          snap.box_mpc);
    vz[i] = gc::ramses::kms_from_momentum(snap.particles.pz[i], snap.aexp,
                                          snap.box_mpc);
  }
  const gc::halo::ParticleView view{
      &snap.particles.x, &snap.particles.y, &snap.particles.z,
      &vx,               &vy,               &vz,
      &snap.particles.mass, &snap.particles.id};
  const gc::halo::HaloCatalog catalog = gc::halo::find_halos(
      view, snap.aexp, snap.box_mpc, gc::halo::FofOptions{0.2, 8});

  /* Data uploading */
  const std::string out = g_work_dir + "/halo_catalog.bin";
  if (!gc::halo::write_catalog(out, catalog).is_ok()) return 3;
  diet_file_set(diet_parameter(pb, 3), DIET_VOLATILE, out.c_str());
  const std::int32_t error_code = 0;
  diet_scalar_set(diet_parameter(pb, 4), &error_code, DIET_VOLATILE,
                  DIET_INT);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  gc::set_default_log_level(gc::LogLevel::kWarn);
  const gc::CliArgs args(argc, argv);
  const int resolution = static_cast<int>(args.get_int("resolution", 16));
  const int box = static_cast<int>(args.get_int("box", 100));

  g_work_dir = (std::filesystem::temp_directory_path() / "gc_quickstart")
                   .string();
  std::filesystem::create_directories(g_work_dir);

  // ---- deployment: MA, one LA and a SED on the in-process DES ----
  gc::des::Engine engine;
  gc::net::UniformTopology topology(0.5e-3, 1.25e8);
  gc::net::SimEnv env(engine, topology);
  gc::naming::Registry registry;
  gc::diet::capi::bind_process(env, registry, /*client_node=*/0);

  gc::diet::Agent ma(gc::diet::Agent::Kind::kMaster, "MA1",
                     gc::sched::make_default_policy(), {}, 1);
  env.attach(ma, 1);
  registry.rebind("MA1", ma.endpoint());
  gc::diet::Agent la(gc::diet::Agent::Kind::kLocal, "LA1",
                     gc::sched::make_default_policy(), {}, 2);
  env.attach(la, 2);
  registry.rebind("LA1", la.endpoint());
  la.register_at(ma.endpoint());

  // Configuration files, as the real tools would read them.
  const std::string sed_cfg = g_work_dir + "/sed.cfg";
  {
    std::ofstream cfg(sed_cfg);
    cfg << "parentName = LA1\nname = SeD-local\nnodeId = 3\n"
           "hostPower = 1.0\nmachines = 1\nworkDir = " << g_work_dir << "\n";
  }
  const std::string client_cfg = g_work_dir + "/client.cfg";
  {
    std::ofstream cfg(client_cfg);
    cfg << "# client configuration (Section 4.3.1)\nMAName = MA1\n";
  }

  // ---- server main(): profile description + registration (Section 4.2) ----
  diet_service_table_init(8);
  diet_profile_desc_t* profile_desc =
      diet_profile_desc_alloc("ramsesZoom1", 2, 2, 4);
  diet_generic_desc_set(diet_parameter(profile_desc, 0), DIET_FILE, DIET_CHAR);
  diet_generic_desc_set(diet_parameter(profile_desc, 1), DIET_SCALAR, DIET_INT);
  diet_generic_desc_set(diet_parameter(profile_desc, 2), DIET_SCALAR, DIET_INT);
  diet_generic_desc_set(diet_parameter(profile_desc, 3), DIET_FILE, DIET_CHAR);
  diet_generic_desc_set(diet_parameter(profile_desc, 4), DIET_SCALAR, DIET_INT);
  if (diet_service_table_add(profile_desc, nullptr, solve_ramsesZoom1) != 0) {
    std::fprintf(stderr, "service registration failed\n");
    return 1;
  }
  diet_profile_desc_free(profile_desc);
  if (diet_SeD(sed_cfg.c_str(), argc, argv) != 0) return 1;

  // ---- client main() (Section 4.3.1) ----
  if (diet_initialize(client_cfg.c_str(), argc, argv) != 0) return 1;
  engine.run();  // let registration settle

  const std::string namelist = g_work_dir + "/zoom.nml";
  {
    std::ofstream nml(namelist);
    nml << "&run_params\n  npart=" << resolution << "\n  boxlen=" << box
        << "\n/\n";
  }

  diet_profile_t* profile = diet_profile_alloc("ramsesZoom1", 2, 2, 4);
  if (diet_file_set(diet_parameter(profile, 0), DIET_VOLATILE,
                    namelist.c_str()) != 0) {
    std::fprintf(stderr, "diet_file_set error on the <namelist.nml> file\n");
    return 1;
  }
  diet_scalar_set(diet_parameter(profile, 1), &resolution, DIET_VOLATILE,
                  DIET_INT);
  diet_scalar_set(diet_parameter(profile, 2), &box, DIET_VOLATILE, DIET_INT);
  // OUT arguments declared with NULL values (Section 4.3.2).
  diet_file_set(diet_parameter(profile, 3), DIET_VOLATILE, nullptr);

  std::printf("[client] calling ramsesZoom1 (%d^3 particles, %d Mpc/h)...\n",
              resolution, box);
  if (diet_call(profile) != 0) {
    std::fprintf(stderr, "diet_call failed\n");
    return 1;
  }

  // Access the OUT data (the paper's Section 4.3.2 pattern).
  const int* returned_value = nullptr;
  diet_scalar_get(diet_parameter(profile, 4), &returned_value, nullptr);
  if (*returned_value == 0) {
    std::size_t catalog_size = 0;
    char* catalog_path = nullptr;
    diet_file_get(diet_parameter(profile, 3), nullptr, &catalog_size,
                  &catalog_path);
    auto catalog = gc::halo::read_catalog(catalog_path);
    std::printf("[client] simulation succeeded: %zu halos in %s (%zu B)\n",
                catalog.is_ok() ? catalog.value().halos.size() : 0,
                catalog_path, catalog_size);
    if (catalog.is_ok()) {
      int shown = 0;
      std::printf("         id     npart   mass        x      y      z\n");
      for (const auto& halo : catalog.value().halos) {
        std::printf("         %-6llu %-7zu %.3e %.3f  %.3f  %.3f\n",
                    static_cast<unsigned long long>(halo.id), halo.npart,
                    halo.mass, halo.x, halo.y, halo.z);
        if (++shown == 5) break;
      }
    }
    std::free(catalog_path);
  } else {
    std::printf("[client] simulation failed with error code %d\n",
                *returned_value);
  }

  diet_profile_free(profile);
  diet_finalize();
  gc::diet::capi::unbind_process();
  return 0;
}
