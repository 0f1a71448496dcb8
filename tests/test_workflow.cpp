// Tests for the zoom services (profiles, decoding, sim-mode solves) and
// their registration.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include "des/engine.hpp"
#include "diet/client.hpp"
#include "diet/deployment.hpp"
#include "halo/halomaker.hpp"
#include "io/tar.hpp"
#include "naming/registry.hpp"
#include "net/simenv.hpp"
#include "parallel/pool.hpp"
#include "workflow/campaign.hpp"
#include "workflow/services.hpp"

namespace gc::workflow {
namespace {

std::string temp_dir(const char* tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       (std::string("gc_wf_") + tag + "_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(Services, Zoom2ProfileMatchesPaperShape) {
  // Section 4.2.1: diet_profile_desc_alloc("ramsesZoom2", 6, 6, 8) with
  // seven IN arguments, one OUT file and one OUT error code.
  const diet::ProfileDesc desc = zoom2_profile_desc();
  EXPECT_EQ(desc.path(), "ramsesZoom2");
  EXPECT_EQ(desc.last_in(), 6);
  EXPECT_EQ(desc.last_inout(), 6);
  EXPECT_EQ(desc.last_out(), 8);
  EXPECT_EQ(desc.arg(0).type, diet::DataType::kFile);
  for (int i = 1; i <= 6; ++i) {
    EXPECT_EQ(desc.arg(i).type, diet::DataType::kScalar);
    EXPECT_EQ(desc.arg(i).base, diet::BaseType::kInt);
  }
  EXPECT_EQ(desc.arg(7).type, diet::DataType::kFile);
  EXPECT_EQ(desc.arg(8).type, diet::DataType::kScalar);
}

TEST(Services, ClientProfilesMatchServiceDescs) {
  const diet::Profile z1 = make_zoom1_profile("/tmp/x.nml", 1024, 128, 100);
  EXPECT_TRUE(zoom1_profile_desc().matches(z1.desc()));
  EXPECT_TRUE(z1.inputs_complete());

  const diet::Profile z2 =
      make_zoom2_profile("/tmp/x.nml", 1024, 128, 100, 64, 32, 96, 2);
  EXPECT_TRUE(zoom2_profile_desc().matches(z2.desc()));
  EXPECT_TRUE(z2.inputs_complete());
  EXPECT_EQ(z2.arg(3).get_scalar<std::int32_t>().value(), 64);
  EXPECT_EQ(z2.arg(6).get_scalar<std::int32_t>().value(), 2);
  EXPECT_EQ(z2.in_file_bytes(), 1024);
}

TEST(Services, RegisterAddsBothServices) {
  diet::ServiceTable table;
  ServiceOptions options;
  ASSERT_TRUE(register_services(table, options).is_ok());
  EXPECT_EQ(table.size(), 2u);
  EXPECT_NE(table.find_by_path("ramsesZoom1"), nullptr);
  EXPECT_NE(table.find_by_path("ramsesZoom2"), nullptr);
  // Estimators present (the plug-in scheduler hook).
  EXPECT_TRUE(
      static_cast<bool>(table.find_by_path("ramsesZoom2")->estimator));
  // Double registration fails.
  EXPECT_FALSE(register_services(table, options).is_ok());
}

TEST(Services, EstimatorFillsCompTime) {
  diet::ServiceTable table;
  ServiceOptions options;
  ASSERT_TRUE(register_services(table, options).is_ok());
  sched::Estimation est;
  table.find_by_path("ramsesZoom2")
      ->estimator(zoom2_profile_desc(), 1.43, 16, est);
  // Nancy-class SED: ~4190 s per zoom2 (Section 5.2 shape).
  EXPECT_NEAR(est.service_comp_s, 4190.0, 50.0);
  sched::Estimation est_slow;
  table.find_by_path("ramsesZoom2")
      ->estimator(zoom2_profile_desc(), 1.00, 16, est_slow);
  EXPECT_GT(est_slow.service_comp_s, est.service_comp_s);
}

/// DES harness: one LA over `seds` SEDs; call() runs a single service
/// call to completion.
struct MiniGrid {
  explicit MiniGrid(const ServiceOptions& options, int seds = 1,
                    std::uint64_t tie_seed = 0)
      : topology(1e-3, 1.25e8), env(engine, topology) {
    engine.set_tie_break_seed(tie_seed);
    GC_CHECK(register_services(services, options).is_ok());
    diet::DeploymentSpec spec;
    spec.ma_node = 0;
    diet::DeploymentSpec::LaSpec la;
    la.name = "LA";
    la.node = 1;
    for (int i = 0; i < seds; ++i) {
      diet::DeploymentSpec::SedSpec sed;
      sed.name = i == 0 ? "SeD-test" : "SeD-test" + std::to_string(i);
      sed.node = static_cast<net::NodeId>(2 + i);
      sed.host_power = 1.3;
      sed.machines = 16;
      la.sed_indexes.push_back(static_cast<std::size_t>(i));
      spec.seds.push_back(sed);
    }
    spec.las.push_back(la);
    deployment =
        std::make_unique<diet::Deployment>(env, registry, services, spec);
    env.attach(client, 0);
    client.connect(registry.resolve("MA1").value());
    engine.run_until(engine.now() + 1.0);
  }

  gc::Status call(diet::Profile profile, diet::Profile* result) {
    gc::Status status = make_error(ErrorCode::kInternal, "did not run");
    client.call_async(std::move(profile),
                      [&](const gc::Status& s, diet::Profile& p) {
                        status = s;
                        *result = p;
                      });
    engine.run();
    return status;
  }

  des::Engine engine;
  net::UniformTopology topology;
  net::SimEnv env;
  naming::Registry registry;
  diet::ServiceTable services;
  std::unique_ptr<diet::Deployment> deployment;
  diet::Client client{"client"};
};

TEST(Services, SimZoom1ProducesReadableCatalog) {
  ServiceOptions options;
  options.work_dir = temp_dir("z1");
  MiniGrid grid(options);

  diet::Profile result;
  const gc::Status status =
      grid.call(make_zoom1_profile("/none.nml", 4096, 128, 100), &result);
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  EXPECT_EQ(result.arg(4).get_scalar<std::int32_t>().value(), 0);

  auto file = result.arg(3).get_file();
  ASSERT_TRUE(file.is_ok());
  // Modeled transfer size is the configured catalog size...
  EXPECT_EQ(file.value().size_bytes, options.catalog_bytes);
  // ...but the file on disk is a real, readable catalog with >= 100 halos
  // (the campaign picks its zoom targets from it).
  auto catalog = halo::read_catalog(file.value().path);
  ASSERT_TRUE(catalog.is_ok());
  EXPECT_GE(catalog.value().halos.size(), 100u);
  // Sorted by mass.
  for (std::size_t i = 1; i < catalog.value().halos.size(); ++i) {
    EXPECT_LE(catalog.value().halos[i].mass,
              catalog.value().halos[i - 1].mass);
  }
  std::filesystem::remove_all(options.work_dir);
}

TEST(Services, SimZoom1TakesModeledTime) {
  ServiceOptions options;
  options.work_dir = temp_dir("z1t");
  MiniGrid grid(options);
  diet::Profile result;
  ASSERT_TRUE(
      grid.call(make_zoom1_profile("/none.nml", 4096, 128, 100), &result)
          .is_ok());
  // Power 1.3 SED: ~4511 s of virtual time (the paper's 1h15m anchor).
  const auto& record = grid.client.records().at(0);
  EXPECT_NEAR(record.completed - record.started, 4511.0, 4511.0 * 0.08);
  std::filesystem::remove_all(options.work_dir);
}

TEST(Services, SimZoom2ProducesTarball) {
  ServiceOptions options;
  options.work_dir = temp_dir("z2");
  MiniGrid grid(options);
  diet::Profile result;
  const gc::Status status = grid.call(
      make_zoom2_profile("/none.nml", 4096, 128, 100, 10, 20, 30, 2),
      &result);
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  EXPECT_EQ(result.arg(8).get_scalar<std::int32_t>().value(), 0);

  auto file = result.arg(7).get_file();
  ASSERT_TRUE(file.is_ok());
  EXPECT_EQ(file.value().size_bytes, options.tarball_bytes);
  auto entries = io::TarReader::load(file.value().path);
  ASSERT_TRUE(entries.is_ok());
  ASSERT_GE(entries.value().size(), 1u);
  EXPECT_EQ(entries.value()[0].name, "README.txt");
  std::filesystem::remove_all(options.work_dir);
}

TEST(Services, BadArgumentsReturnErrorCode) {
  ServiceOptions options;
  options.work_dir = temp_dir("bad");
  MiniGrid grid(options);
  // resolution 0 is invalid -> solve returns 1, call surfaces an error.
  diet::Profile result;
  const gc::Status status =
      grid.call(make_zoom1_profile("/none.nml", 4096, 0, 100), &result);
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(result.arg(4).get_scalar<std::int32_t>().value(), 1);
  std::filesystem::remove_all(options.work_dir);
}

TEST(Services, RealModeZoom1RunsActualPipeline) {
  ServiceOptions options;
  options.mode = ServiceMode::kReal;
  options.work_dir = temp_dir("real1");
  options.real_max_resolution = 8;  // tiny but real
  options.real_steps = 6;
  MiniGrid grid(options);

  diet::Profile result;
  const gc::Status status =
      grid.call(make_zoom1_profile("/none.nml", 4096, 128, 100), &result);
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  auto file = result.arg(3).get_file();
  ASSERT_TRUE(file.is_ok());
  auto catalog = halo::read_catalog(file.value().path);
  ASSERT_TRUE(catalog.is_ok());
  // A real 8^3 run at z=0 contains at least one FoF group.
  EXPECT_GE(catalog.value().total_particles, 512u);
  std::filesystem::remove_all(options.work_dir);
}

TEST(Services, RealModeZoom2ProducesGalaxyTar) {
  ServiceOptions options;
  options.mode = ServiceMode::kReal;
  options.work_dir = temp_dir("real2");
  options.real_max_resolution = 8;
  options.real_steps = 6;
  MiniGrid grid(options);

  diet::Profile result;
  const gc::Status status = grid.call(
      make_zoom2_profile("/none.nml", 4096, 128, 100, 64, 64, 64, 1),
      &result);
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  auto file = result.arg(7).get_file();
  ASSERT_TRUE(file.is_ok());
  auto entries = io::TarReader::load(file.value().path);
  ASSERT_TRUE(entries.is_ok());
  // README + per-snapshot halo catalogs + galaxies.txt.
  EXPECT_GE(entries.value().size(), 3u);
  bool has_galaxies = false;
  for (const auto& entry : entries.value()) {
    if (entry.name == "galaxies.txt") has_galaxies = true;
  }
  EXPECT_TRUE(has_galaxies);
  std::filesystem::remove_all(options.work_dir);
}

/// The Section-5 client at laptop scale on four SEDs: one real
/// ramsesZoom1, then four ramsesZoom2 at once, all on the shared pool at
/// `threads` threads. Returns every returned file path relative to the
/// work directory, zoom1 first, then zoom2 in submission order.
std::vector<std::string> run_real_campaign(const std::string& work_dir,
                                           std::size_t threads,
                                           std::uint64_t tie_seed) {
  parallel::set_thread_count(threads);
  ServiceOptions options;
  options.mode = ServiceMode::kReal;
  options.work_dir = work_dir;
  options.real_max_resolution = 8;
  options.real_steps = 6;
  MiniGrid grid(options, 4, tie_seed);
  constexpr int kCentres[4][3] = {
      {32, 64, 96}, {64, 64, 64}, {96, 32, 64}, {16, 100, 50}};
  std::vector<std::string> paths(5);
  grid.client.call_async(
      make_zoom1_profile("/none.nml", 4096, 128, 100),
      [&](const gc::Status& status, diet::Profile& p) {
        ASSERT_TRUE(status.is_ok()) << status.to_string();
        paths[0] = p.arg(3).get_file().value().path;
        for (int i = 0; i < 4; ++i) {
          const auto& c = kCentres[i];
          grid.client.call_async(
              make_zoom2_profile("/none.nml", 4096, 128, 100, c[0], c[1],
                                 c[2], 2),
              [&paths, i](const gc::Status& s, diet::Profile& q) {
                ASSERT_TRUE(s.is_ok()) << s.to_string();
                paths[static_cast<std::size_t>(i) + 1] =
                    q.arg(7).get_file().value().path;
              });
        }
      });
  grid.engine.run();
  parallel::set_thread_count(0);
  for (std::string& path : paths) {
    EXPECT_EQ(path.rfind(work_dir + "/", 0), 0u) << path;
    path = path.substr(work_dir.size() + 1);
  }
  return paths;
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Job directories are minted globally; rebasing each `job_<id>` to the
/// first id of its run makes two runs' paths comparable.
std::vector<std::string> rebased(std::vector<std::string> paths) {
  auto id_of = [](const std::string& path) {
    return std::stoull(path.substr(path.find("job_") + 4, 8));
  };
  const unsigned long long first = id_of(paths[0]);
  for (std::string& path : paths) {
    const std::size_t at = path.find("job_") + 4;
    char tag[16];
    std::snprintf(tag, sizeof(tag), "%08llu", id_of(path) - first);
    path.replace(at, 8, tag);
  }
  return paths;
}

TEST(Campaign, RealJobsOnThePoolAreByteIdenticalAcrossThreadsAndTieSeeds) {
  const std::string root = temp_dir("realpool");
  struct Run {
    std::size_t threads;
    std::uint64_t tie_seed;
  };
  const Run runs[] = {{1, 0}, {2, 0}, {4, 0}, {1, 97}, {4, 97}};
  std::vector<std::string> dirs;
  std::vector<std::vector<std::string>> paths;
  for (const Run& run : runs) {
    dirs.push_back(root + "/t" + std::to_string(run.threads) + "_s" +
                   std::to_string(run.tie_seed));
    paths.push_back(run_real_campaign(dirs.back(), run.threads, run.tie_seed));
  }
  // Job directories follow the solve order, not which job finished first.
  EXPECT_EQ(rebased(paths[0]), rebased(paths[2]));
  for (std::size_t r = 1; r < paths.size(); ++r) {
    for (std::size_t call = 0; call < paths[0].size(); ++call) {
      const auto want = file_bytes(dirs[0] + "/" + paths[0][call]);
      ASSERT_FALSE(want.empty()) << paths[0][call];
      EXPECT_TRUE(file_bytes(dirs[r] + "/" + paths[r][call]) == want)
          << "call " << call << " differs at threads=" << runs[r].threads
          << " tie_seed=" << runs[r].tie_seed;
    }
  }
  std::filesystem::remove_all(root);
}

TEST(Campaign, SpecFromG5kMirrorsPlacement) {
  const auto g5k = platform::make_grid5000();
  CampaignConfig config;
  config.policy = "mct";
  const diet::DeploymentSpec spec = deployment_spec_from_g5k(g5k, config);
  EXPECT_EQ(spec.policy, "mct");
  EXPECT_EQ(spec.las.size(), 6u);
  EXPECT_EQ(spec.seds.size(), 11u);
  EXPECT_EQ(spec.ma_node, g5k.ma_node);
  for (std::size_t i = 0; i < spec.seds.size(); ++i) {
    EXPECT_EQ(spec.seds[i].node, g5k.seds[i].frontal);
    EXPECT_EQ(spec.seds[i].machines, 16);
    EXPECT_GT(spec.seds[i].host_power, 0.9);
  }
}

}  // namespace
}  // namespace gc::workflow
