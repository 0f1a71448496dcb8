#include "workflow/services.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "galaxy/galaxymaker.hpp"
#include "halo/halomaker.hpp"
#include "io/namelist.hpp"
#include "io/tar.hpp"
#include "parallel/pool.hpp"
#include "ramses/pm.hpp"
#include "ramses/simulation.hpp"
#include "tree/treemaker.hpp"

namespace gc::workflow {

namespace {

std::atomic<std::uint64_t> g_job_counter{0};

using diet::BaseType;
using diet::DataType;
using diet::Persistence;

void set_file_arg(diet::ProfileDesc& desc, int index) {
  desc.arg(index).type = DataType::kFile;
  desc.arg(index).base = BaseType::kChar;
}

void set_int_arg(diet::ProfileDesc& desc, int index) {
  desc.arg(index).type = DataType::kScalar;
  desc.arg(index).base = BaseType::kInt;
}

/// Decoded request arguments common to both services.
struct ZoomArgs {
  std::string namelist_path;
  int resolution = 128;
  int size_mpc = 100;
  int cx = 0, cy = 0, cz = 0;
  int nb_box = 0;
  bool zoom2 = false;
};

gc::Result<ZoomArgs> decode_args(diet::Profile& profile) {
  ZoomArgs args;
  args.zoom2 = profile.path() == "ramsesZoom2";
  auto file = profile.arg(0).get_file();
  if (!file.is_ok()) return file.status();
  args.namelist_path = file.value().path;
  auto geti = [&](int index) -> gc::Result<int> {
    auto v = profile.arg(index).get_scalar<std::int32_t>();
    if (!v.is_ok()) return v.status();
    return static_cast<int>(v.value());
  };
  auto resolution = geti(1);
  if (!resolution.is_ok()) return resolution.status();
  args.resolution = resolution.value();
  auto size = geti(2);
  if (!size.is_ok()) return size.status();
  args.size_mpc = size.value();
  if (args.zoom2) {
    auto cx = geti(3);
    auto cy = geti(4);
    auto cz = geti(5);
    auto nb = geti(6);
    if (!cx.is_ok()) return cx.status();
    if (!cy.is_ok()) return cy.status();
    if (!cz.is_ok()) return cz.status();
    if (!nb.is_ok()) return nb.status();
    args.cx = cx.value();
    args.cy = cy.value();
    args.cz = cz.value();
    args.nb_box = nb.value();
  }
  if (args.resolution < 2 || args.size_mpc <= 0) {
    return make_error(ErrorCode::kInvalidArgument, "bad zoom arguments");
  }
  return args;
}

platform::ZoomJobSpec spec_of(const ZoomArgs& args) {
  platform::ZoomJobSpec spec;
  spec.resolution = args.resolution;
  spec.box_mpc = args.size_mpc;
  spec.zoom_levels = args.zoom2 ? args.nb_box : 0;
  return spec;
}

/// Builds the (down-scaled, in real mode) run parameters for a request.
/// Fails with kInvalidArgument when the run could not start, e.g. on a
/// resolution that leaves the grid not a power of two.
gc::Result<ramses::RunParams> real_params(const ZoomArgs& args,
                                          const ServiceOptions& options,
                                          std::uint64_t seed) {
  ramses::RunParams params;
  const int npart = std::min(args.resolution, options.real_max_resolution);
  // Honour the shipped namelist when it is readable; profile scalars win
  // for the geometry (the paper passes them separately). They replace the
  // namelist's grid before it is checked, so a grid this run never uses
  // cannot drop the rest of the namelist.
  if (auto nml = io::Namelist::load(args.namelist_path); nml.is_ok()) {
    auto& run = nml.value().group_or_create("run_params");
    run.set("npart", std::to_string(npart));
    run.set("pm_grid", std::to_string(npart * 2));
    if (auto parsed = ramses::RunParams::from_namelist(nml.value());
        parsed.is_ok()) {
      params = parsed.value();
    }
  }
  params.npart_dim = npart;
  params.pm_grid = npart * 2;
  params.box_mpc = args.size_mpc;
  params.steps = options.real_steps;
  params.seed = seed;
  params.aout = {0.4, 0.6, 0.8, 1.0};
  if (args.zoom2) {
    params.zoom_levels = std::max(1, args.nb_box);
    const double cell = params.box_mpc / args.resolution;
    params.zoom_centre = {args.cx * cell, args.cy * cell, args.cz * cell};
  }
  if (auto status = params.validate(); !status.is_ok()) return status;
  return params;
}

/// Ends a call whose arguments cannot run: rc 1 in its status argument.
void fail_call(diet::ServiceContext& ctx, int status_arg) {
  ctx.profile().arg(status_arg).set_scalar<std::int32_t>(
      1, BaseType::kInt, Persistence::kVolatile);
  ctx.finish(1);
}

/// Mints the next job directory under the SED's work area and creates it.
/// Called on the dispatch thread when the solve function runs, so the id
/// follows the deterministic solve order, never the order in which
/// concurrent computations happen to finish.
std::string job_dir(const ServiceOptions& options,
                    const std::string& sed_name) {
  const std::uint64_t id = g_job_counter.fetch_add(1);
  // Fixed-width id: the directory name rides the wire as a file-path
  // argument, so its length must not depend on how many jobs ran before
  // (payload bytes feed modeled transfer times).
  char tag[24];
  std::snprintf(tag, sizeof(tag), "job_%08llu",
                static_cast<unsigned long long>(id));
  std::string dir = options.work_dir + "/" + sed_name + "/" + tag;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

/// FoF on one output of a run: the live particle set, with velocities
/// converted to km/s.
halo::HaloCatalog find_halos_at(const ramses::ParticleSet& p, double aexp,
                                double box_mpc) {
  std::vector<double> vx(p.size()), vy(p.size()), vz(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    vx[i] = ramses::kms_from_momentum(p.px[i], aexp, box_mpc);
    vy[i] = ramses::kms_from_momentum(p.py[i], aexp, box_mpc);
    vz[i] = ramses::kms_from_momentum(p.pz[i], aexp, box_mpc);
  }
  return halo::find_halos(
      halo::ParticleView{&p.x, &p.y, &p.z, &vx, &vy, &vz, &p.mass, &p.id},
      aexp, box_mpc, halo::FofOptions{0.2, 8});
}

/// Fabricates a plausible halo catalog (sim mode): power-law masses,
/// uniform positions.
halo::HaloCatalog fabricate_catalog(int count, int resolution, Rng& rng) {
  halo::HaloCatalog catalog;
  catalog.aexp = 1.0;
  catalog.box_mpc = 100.0;
  catalog.total_particles = static_cast<std::size_t>(resolution) *
                            static_cast<std::size_t>(resolution) *
                            static_cast<std::size_t>(resolution);
  for (int i = 0; i < count; ++i) {
    halo::Halo h;
    h.id = static_cast<std::uint64_t>(i + 1);
    // Press-Schechter-ish: steep power-law tail.
    h.mass = 1e-4 * std::pow(rng.uniform(0.02, 1.0), -1.7) /
             static_cast<double>(count);
    h.npart = static_cast<std::size_t>(
        std::max(20.0, h.mass * static_cast<double>(catalog.total_particles)));
    h.x = rng.uniform();
    h.y = rng.uniform();
    h.z = rng.uniform();
    h.vx = rng.normal(0.0, 300.0);
    h.vy = rng.normal(0.0, 300.0);
    h.vz = rng.normal(0.0, 300.0);
    h.sigma_v = 100.0 * std::cbrt(h.mass * 1e6);
    catalog.halos.push_back(std::move(h));
  }
  std::sort(catalog.halos.begin(), catalog.halos.end(),
            [](const halo::Halo& a, const halo::Halo& b) {
              return a.mass > b.mass;
            });
  for (std::size_t i = 0; i < catalog.halos.size(); ++i) {
    catalog.halos[i].id = i + 1;
  }
  return catalog;
}

// The real-mode numerics. They run as pool jobs, possibly on a worker
// thread while the dispatch thread serves other calls, so they take their
// inputs by value and touch nothing but the files under their own job
// directory.

int real_zoom1(const ramses::RunParams& params,
               const std::string& catalog_path) {
  // Only the final output is searched for halos.
  halo::HaloCatalog catalog;
  bool found = false;
  ramses::run_simulation(
      params, [&](double aexp, const ramses::ParticleSet& particles) {
        if (aexp < params.a_end) return;
        catalog = find_halos_at(particles, aexp, params.box_mpc);
        found = true;
      });
  if (!found) return 2;
  if (!halo::write_catalog(catalog_path, catalog).is_ok()) return 3;
  return 0;
}

int real_zoom2(const ramses::RunParams& params, const ZoomArgs& args,
               const std::string& tar_path) {
  // GALICS post-processing chain: a halo catalog per output, found on the
  // live particle set as the run reaches it.
  std::vector<halo::HaloCatalog> catalogs;
  ramses::run_simulation(
      params, [&](double aexp, const ramses::ParticleSet& particles) {
        catalogs.push_back(find_halos_at(particles, aexp, params.box_mpc));
      });
  if (catalogs.empty()) return 2;
  const tree::MergerForest forest = tree::build_forest(catalogs);
  const cosmo::Cosmology cosmology(params.cosmology);
  const auto galaxy_catalogs = galaxy::run_sam(forest, cosmology);

  io::TarWriter tar;
  auto status = tar.add_text("README.txt",
                             strformat("ramsesZoom2 results (resolution %d, "
                                       "%d nested boxes)\n",
                                       args.resolution, args.nb_box));
  for (std::size_t s = 0; s < catalogs.size() && status.is_ok(); ++s) {
    status = tar.add_text(strformat("halos_%03zu.txt", s),
                          halo::catalog_to_text(catalogs[s]));
  }
  if (status.is_ok() && !galaxy_catalogs.empty()) {
    status = tar.add_text("galaxies.txt",
                          galaxy::catalog_to_text(galaxy_catalogs.back()));
  }
  if (!status.is_ok()) return 3;
  if (!tar.write(tar_path).is_ok()) return 3;
  return 0;
}

}  // namespace

diet::ProfileDesc zoom1_profile_desc() {
  diet::ProfileDesc desc("ramsesZoom1", 2, 2, 4);
  set_file_arg(desc, 0);
  set_int_arg(desc, 1);
  set_int_arg(desc, 2);
  set_file_arg(desc, 3);
  set_int_arg(desc, 4);
  return desc;
}

diet::ProfileDesc zoom2_profile_desc() {
  // The paper's exact shape: diet_profile_desc_alloc("ramsesZoom2", 6, 6, 8).
  diet::ProfileDesc desc("ramsesZoom2", 6, 6, 8);
  set_file_arg(desc, 0);
  for (int i = 1; i <= 6; ++i) set_int_arg(desc, i);
  set_file_arg(desc, 7);
  set_int_arg(desc, 8);
  return desc;
}

gc::Status register_services(diet::ServiceTable& table,
                             const ServiceOptions& options) {
  const platform::RamsesCostModel cost = options.cost_model;

  // Plug-in performance estimators (paper ref [2]): per-service compute
  // estimate the MCT policy consumes. The campaign's jobs share one spec,
  // so the estimate uses the canonical geometry.
  diet::PerfEstimator zoom1_estimator =
      [cost](const diet::ProfileDesc&, double power, int machines,
             sched::Estimation& est) {
        est.service_comp_s = cost.duration(
            cost.zoom1_work(platform::ZoomJobSpec{}), power, machines);
      };
  diet::PerfEstimator zoom2_estimator =
      [cost](const diet::ProfileDesc&, double power, int machines,
             sched::Estimation& est) {
        platform::ZoomJobSpec spec;
        spec.zoom_levels = 2;
        est.service_comp_s =
            cost.duration(cost.zoom2_work(spec), power, machines);
      };

  ServiceOptions opts = options;

  diet::SolveFn solve_zoom1 = [opts, cost](diet::ServiceContext& ctx) {
    auto args = decode_args(ctx.profile());
    if (!args.is_ok()) return fail_call(ctx, 4);
    const ZoomArgs a = args.value();
    ramses::RunParams params;
    if (opts.mode == ServiceMode::kReal) {
      auto real = real_params(a, opts, 1000);
      if (!real.is_ok()) return fail_call(ctx, 4);
      params = std::move(real).value();
    }
    const double modeled = cost.duration_with_jitter(
        cost.zoom1_work(spec_of(a)), ctx.host_power(), ctx.machines(),
        ctx.rng());

    const std::string catalog_path =
        job_dir(opts, ctx.sed_name()) + "/halo_catalog.bin";
    std::function<int()> work;
    if (opts.mode == ServiceMode::kReal) {
      // Start the numerics now, on the pool; the virtual completion joins.
      const parallel::Job job = parallel::start(
          [params = std::move(params), catalog_path] {
            return real_zoom1(params, catalog_path);
          });
      work = [job] { return job.wait(); };
    } else {
      work = [a, opts, catalog_path]() {
        // The catalog is science output: derive it from the request's
        // inputs alone, never from the SED's draw history — a retried or
        // rescheduled call must fabricate the identical catalog on any
        // server (the chaos suite diffs science against fault-free runs).
        Rng catalog_rng(0x9e3779b97f4a7c15ULL ^
                        (static_cast<std::uint64_t>(a.resolution) << 32) ^
                        static_cast<std::uint64_t>(opts.sim_min_halos));
        const halo::HaloCatalog catalog = fabricate_catalog(
            opts.sim_min_halos, a.resolution, catalog_rng);
        return halo::write_catalog(catalog_path, catalog).is_ok() ? 0 : 3;
      };
    }
    ctx.compute(modeled, std::move(work), [&ctx, opts, catalog_path](int rc) {
      diet::Profile& profile = ctx.profile();
      if (rc == 0) {
        const std::int64_t modeled_bytes =
            opts.mode == ServiceMode::kSim ? opts.catalog_bytes : -1;
        // The client drives part 2 from this catalog, so a persistent run
        // uses PERSISTENT_RETURN: keep a replica on the SED (and in the
        // hierarchy catalog) but still ship the value home.
        const Persistence zoom1_mode =
            opts.output_mode == Persistence::kPersistent
                ? Persistence::kPersistentReturn
                : opts.output_mode;
        profile.arg(3).set_file(catalog_path, zoom1_mode, modeled_bytes);
      }
      profile.arg(4).set_scalar<std::int32_t>(rc, BaseType::kInt,
                                              Persistence::kVolatile);
      ctx.finish(rc);
    });
  };

  diet::SolveFn solve_zoom2 = [opts, cost](diet::ServiceContext& ctx) {
    auto args = decode_args(ctx.profile());
    if (!args.is_ok()) return fail_call(ctx, 8);
    const ZoomArgs a = args.value();
    ramses::RunParams params;
    if (opts.mode == ServiceMode::kReal) {
      const std::uint64_t seed = 2000 + static_cast<std::uint64_t>(a.cx);
      auto real = real_params(a, opts, seed);
      if (!real.is_ok()) return fail_call(ctx, 8);
      params = std::move(real).value();
    }
    const double modeled = cost.duration_with_jitter(
        cost.zoom2_work(spec_of(a)), ctx.host_power(), ctx.machines(),
        ctx.rng());

    const std::string tar_path =
        job_dir(opts, ctx.sed_name()) + "/results.tar";
    std::function<int()> work;
    if (opts.mode == ServiceMode::kReal) {
      const parallel::Job job = parallel::start(
          [params = std::move(params), a, tar_path] {
            return real_zoom2(params, a, tar_path);
          });
      work = [job] { return job.wait(); };
    } else {
      work = [a, tar_path]() {
        io::TarWriter tar;
        auto status = tar.add_text(
            "README.txt",
            strformat("simulated ramsesZoom2 (resolution %d, centre "
                      "%d,%d,%d, %d boxes)\n",
                      a.resolution, a.cx, a.cy, a.cz, a.nb_box));
        if (!status.is_ok()) return 3;
        return tar.write(tar_path).is_ok() ? 0 : 3;
      };
    }
    ctx.compute(modeled, std::move(work), [&ctx, opts, tar_path](int rc) {
      diet::Profile& profile = ctx.profile();
      if (rc == 0) {
        const std::int64_t modeled_bytes =
            opts.mode == ServiceMode::kSim ? opts.tarball_bytes : -1;
        profile.arg(7).set_file(tar_path, opts.output_mode,
                                modeled_bytes);
      }
      profile.arg(8).set_scalar<std::int32_t>(rc, BaseType::kInt,
                                              Persistence::kVolatile);
      ctx.finish(rc);
    });
  };

  auto status = table.add(zoom1_profile_desc(), std::move(solve_zoom1),
                          std::move(zoom1_estimator));
  if (!status.is_ok()) return status;
  return table.add(zoom2_profile_desc(), std::move(solve_zoom2),
                   std::move(zoom2_estimator));
}

diet::Profile make_zoom1_profile(const std::string& namelist_path,
                                 std::int64_t namelist_bytes, int resolution,
                                 int size_mpc,
                                 diet::Persistence namelist_mode) {
  diet::Profile profile("ramsesZoom1", 2, 2, 4);
  profile.arg(0).set_file(namelist_path, namelist_mode, namelist_bytes);
  profile.arg(1).set_scalar<std::int32_t>(resolution, BaseType::kInt,
                                          Persistence::kVolatile);
  profile.arg(2).set_scalar<std::int32_t>(size_mpc, BaseType::kInt,
                                          Persistence::kVolatile);
  // OUT arguments "should be declared even if their values is set to NULL"
  // (Section 4.3.2): shape only, no value.
  profile.arg(3).desc.type = DataType::kFile;
  profile.arg(3).desc.base = BaseType::kChar;
  profile.arg(4).desc.type = DataType::kScalar;
  profile.arg(4).desc.base = BaseType::kInt;
  return profile;
}

diet::Profile make_zoom2_profile(const std::string& namelist_path,
                                 std::int64_t namelist_bytes, int resolution,
                                 int size_mpc, int cx, int cy, int cz,
                                 int nb_box,
                                 diet::Persistence namelist_mode) {
  diet::Profile profile("ramsesZoom2", 6, 6, 8);
  profile.arg(0).set_file(namelist_path, namelist_mode, namelist_bytes);
  auto set_int = [&profile](int index, int value) {
    profile.arg(index).set_scalar<std::int32_t>(
        static_cast<std::int32_t>(value), BaseType::kInt,
        Persistence::kVolatile);
  };
  set_int(1, resolution);
  set_int(2, size_mpc);
  set_int(3, cx);
  set_int(4, cy);
  set_int(5, cz);
  set_int(6, nb_box);
  profile.arg(7).desc.type = DataType::kFile;
  profile.arg(7).desc.base = BaseType::kChar;
  profile.arg(8).desc.type = DataType::kScalar;
  profile.arg(8).desc.base = BaseType::kInt;
  return profile;
}

}  // namespace gc::workflow
