// campaign_real: the paper's Section-5 client (one ramsesZoom1, then every
// ramsesZoom2 at once) on the modeled Grid'5000 with real numerics, plus
// the exact paper campaign as a correctness check.
//
// The driver below is the fault-free, single-hierarchy path of
// workflow::run_grid5000_campaign, rebuilt so set-up and the timed phase
// can be timed apart and the tracing seams installed. The paper check
// compares it with run_grid5000_campaign itself, bit for bit.
//
// Every round runs in its own directory, named relative to the run's work
// directory: file paths ride the wire as call arguments, so their length
// feeds the modeled transfer times and must not depend on where the
// benchmark runs.
#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <vector>

#include "common/log.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "cosmo/cosmology.hpp"
#include "des/engine.hpp"
#include "diet/client.hpp"
#include "diet/deployment.hpp"
#include "galaxy/galaxymaker.hpp"
#include "grafic/ic.hpp"
#include "halo/halomaker.hpp"
#include "io/namelist.hpp"
#include "io/tar.hpp"
#include "naming/registry.hpp"
#include "net/simenv.hpp"
#include "parallel/pool.hpp"
#include "platform/grid5000.hpp"
#include "ramses/pm.hpp"
#include "ramses/simulation.hpp"
#include "rounds.hpp"
#include "tree/treemaker.hpp"
#include "workflow/campaign.hpp"
#include "workflow/services.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

// The Section-5 request geometry (CampaignConfig defaults).
constexpr int kResolution = 128;
constexpr int kSizeMpc = 100;
constexpr int kNbBox = 2;
constexpr std::int64_t kShippedInputBytes = 4096;
// campaign_real: zoom1 plus one zoom2 per SED (about 4 s of numerics on four
// cores). Below 16^3 per level zoom1 finds no halo and the campaign cannot
// start.
constexpr int kRealSubSimulations = 11;
constexpr int kRealResolution = 16;
constexpr int kRealSteps = 24;
// The paper deployment's seed: SED cost jitter and agent tie-breaks.
constexpr std::uint64_t kDeploySeed = 7;

// Paper reference values (Section 5.2): 16h 18min 43s and 49.8 ms.
constexpr double kPaperMakespanS = 58723.0;
constexpr double kPaperFindingMs = 49.8;

/// Round directories are relative to the run's work directory (the
/// process's working directory while it runs).
std::string round_dir(int index) { return gc::strformat("round_%06d", index); }

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::uint64_t hash_bytes(std::uint64_t h, const std::vector<std::uint8_t>& b) {
  const std::uint64_t n = b.size();
  h = fnv1a(h, &n, sizeof n);
  return fnv1a(h, b.data(), b.size());
}

/// What one call produced: its centre and zoom depth, return code, and the
/// file it returned (zoom2 tarball; zoom1 has no centre).
struct Job {
  std::array<std::int64_t, 5> science{};  ///< cx, cy, cz, nb_box, rc
  std::string file;
};

struct Round : RoundCore {
  std::uint64_t catalog_hash = 0;  ///< every file the calls returned
  std::uint64_t flows = 0;         ///< bulk flows (flow model on)
  std::string namelist;
  Job zoom1;
  std::vector<Job> zoom2;  ///< completion order
  TreeCensus io;
};

/// FNV-1a over the sorted science tuples, as run_grid5000_campaign hashes
/// them: independent of completion order.
std::uint64_t science_digest_of(std::vector<std::array<std::int64_t, 5>> tuples) {
  std::sort(tuples.begin(), tuples.end());
  std::uint64_t h = 14695981039346656037ULL;
  for (const auto& tuple : tuples) {
    for (const std::int64_t value : tuple) {
      const auto u = static_cast<std::uint64_t>(value);
      for (int i = 0; i < 8; ++i) {
        h ^= (u >> (8 * i)) & 0xffULL;
        h *= 1099511628211ULL;
      }
    }
  }
  return h;
}

gc::workflow::ServiceOptions service_options(const CampaignSpec& spec,
                                             const std::string& dir) {
  gc::workflow::ServiceOptions options;
  options.mode = spec.real ? gc::workflow::ServiceMode::kReal
                           : gc::workflow::ServiceMode::kSim;
  options.real_max_resolution = kRealResolution;
  options.real_steps = kRealSteps;
  options.work_dir = dir + "/campaign_" + std::to_string(kDeploySeed);
  return options;
}

void campaign_round(const CampaignSpec& spec, const std::string& dir,
                    RoundMode mode, Round& out) {
  const bool traced = mode == RoundMode::kTraced;
  const gc::workflow::ServiceOptions options = service_options(spec, dir);

  // The client's input, the namelist it ships, is written before set-up
  // starts: it is what the benchmark hands the program, not program work.
  std::error_code ec;
  fs::create_directories(options.work_dir, ec);
  out.namelist = options.work_dir + "/zoom.nml";
  {
    gc::ramses::RunParams params;
    params.npart_dim = kResolution;
    params.box_mpc = kSizeMpc;
    std::ofstream nml(out.namelist);
    nml << params.to_namelist();
  }

  const Clock::time_point setup_start = Clock::now();
  Clock::time_point t = Clock::now();
  const gc::platform::G5kDeployment g5k = gc::platform::make_grid5000(16);
  out.platform_s = seconds_since(t);

  t = Clock::now();
  gc::des::Engine engine;
  engine.set_tie_break_seed(spec.tie_seed);
  gc::net::SimEnv env(engine, g5k.platform);
  if (spec.contention) env.enable_contention();
  gc::naming::Registry registry;
  gc::diet::ServiceTable services;
  GC_CHECK(gc::workflow::register_services(services, options).is_ok());
  gc::workflow::CampaignConfig config;
  config.seed = kDeploySeed;
  gc::diet::Deployment deployment(
      env, registry, services,
      gc::workflow::deployment_spec_from_g5k(g5k, config));
  gc::diet::Client client("client", gc::diet::Client::Tuning{});
  env.attach(client, g5k.client_node);
  const auto ma = registry.resolve("MA1");
  GC_CHECK(ma.is_ok());
  client.connect(ma.value());
  out.deploy_s = seconds_since(t);

  t = Clock::now();
  engine.run_until(engine.now() + 2.0);
  out.register_s = seconds_since(t);
  out.setup_s = seconds_since(setup_start);
  if (mode == RoundMode::kSetupOnly) return;

  if (traced) {
    env.set_fault_hook(&out.census);
    install_timed_policy(deployment.ma(), out.rank);
    for (std::size_t i = 0; i < deployment.la_count(); ++i) {
      install_timed_policy(deployment.la(i), out.rank);
    }
  }

  // ---- timed phase: zoom1, then every zoom2 at once ----
  const std::uint64_t events_before = engine.events_executed();
  const Clock::time_point run_start = Clock::now();
  auto submit_zoom2 = [&](const std::string& catalog_path) {
    auto catalog = gc::halo::read_catalog(catalog_path);
    GC_CHECK_MSG(catalog.is_ok() && !catalog.value().halos.empty(),
                 "zoom1 produced no halos");
    const auto& halos = catalog.value().halos;
    for (int i = 0; i < spec.sub_simulations; ++i) {
      const gc::halo::Halo& halo = halos[static_cast<std::size_t>(i) % halos.size()];
      const int cx = static_cast<int>(halo.x * kResolution);
      const int cy = static_cast<int>(halo.y * kResolution);
      const int cz = static_cast<int>(halo.z * kResolution);
      client.call_async(
          gc::workflow::make_zoom2_profile(out.namelist, kShippedInputBytes,
                                           kResolution, kSizeMpc, cx, cy, cz,
                                           kNbBox),
          [&out, cx, cy, cz](const gc::Status& status, gc::diet::Profile& p) {
            if (!status.is_ok()) {
              ++out.failed;
              return;
            }
            const auto rc = p.arg(8).get_scalar<std::int32_t>();
            const auto file = p.arg(7).get_file();
            out.zoom2.push_back(
                {{cx, cy, cz, kNbBox, rc.is_ok() ? rc.value() : -1},
                 file.is_ok() ? file.value().path : std::string()});
          });
    }
  };
  client.call_async(
      gc::workflow::make_zoom1_profile(out.namelist, kShippedInputBytes,
                                       kResolution, kSizeMpc),
      [&out, &submit_zoom2](const gc::Status& status, gc::diet::Profile& p) {
        if (!status.is_ok()) {
          ++out.failed;
          return;
        }
        const auto file = p.arg(3).get_file();
        GC_CHECK(file.is_ok());
        out.zoom1.file = file.value().path;
        submit_zoom2(out.zoom1.file);
      });
  if (traced) {
    run_stepped(engine, out.steps);
  } else {
    engine.run();
  }
  out.run_s = seconds_since(run_start);
  env.set_fault_hook(nullptr);
  out.events = engine.events_executed() - events_before;
  out.queue_depth_max = engine.queue_depth_highwater();
  if (const gc::net::FlowModel* flow = env.flow_model()) {
    out.flows = flow->flows_completed();
  }

  // ---- outputs, aggregated as run_grid5000_campaign aggregates them ----
  const auto& records = client.records();
  out.calls = records.size();
  double first_submit = records.empty() ? 0.0 : records.front().submitted;
  double last_complete = records.empty() ? 0.0 : records.front().completed;
  // Welford mean over zoom2 then zoom1, the campaign's own order, so the
  // value matches run_grid5000_campaign bit for bit.
  gc::RunningStats finding;
  std::uint64_t state = kFnvOffset;
  for (const auto& rec : records) {
    if (rec.service != "ramsesZoom1") finding.add(rec.finding_time());
  }
  for (const auto& rec : records) {
    if (rec.service == "ramsesZoom1") finding.add(rec.finding_time());
  }
  for (const auto& rec : records) {
    for (const double v : {rec.submitted, rec.found, rec.started, rec.completed}) {
      state = fnv1a(state, &v, sizeof v);
    }
    state = fnv1a(state, &rec.sed_uid, sizeof rec.sed_uid);
    state = fnv1a(state, rec.service.data(), rec.service.size());
    first_submit = std::min(first_submit, rec.submitted);
    last_complete = std::max(last_complete, rec.completed);
    if (rec.ok) {
      ++out.ok;
      out.latency.push_back(rec.total_time());
      out.finding.push_back(rec.finding_time());
      out.queue.push_back(rec.latency());
      out.exec_return.push_back(rec.completed - rec.started);
    }
  }
  out.state_hash = state;
  out.finding_mean = finding.mean();
  out.makespan = last_complete - first_submit;
  for (auto* v : {&out.latency, &out.finding, &out.queue, &out.exec_return}) {
    std::sort(v->begin(), v->end());
  }
  std::vector<std::array<std::int64_t, 5>> science;
  for (const Job& job : out.zoom2) science.push_back(job.science);
  out.science_digest = science_digest_of(science);

  // Returned files, in science order so the hash ignores completion order.
  std::vector<Job> sorted = out.zoom2;
  std::sort(sorted.begin(), sorted.end(), [](const Job& a, const Job& b) {
    return a.science < b.science;
  });
  std::uint64_t files = hash_bytes(kFnvOffset, file_bytes(out.zoom1.file));
  for (const Job& job : sorted) files = hash_bytes(files, file_bytes(job.file));
  out.catalog_hash = files;
  out.io = census_tree(dir);
}

// ---- campaign_real stage replay -------------------------------------------

struct Stages {
  double ic_s = 0.0;
  double pm_s = 0.0;
  double fof_s = 0.0;
  double tree_s = 0.0;
  double sam_s = 0.0;
  double tar_s = 0.0;
  double pm_flops = 0.0;  ///< computed from the kernel's loop structure
  double pm_bytes = 0.0;  ///< computed from the arrays each pass streams
  std::vector<double> step_ms;
};

/// The run parameters workflow/services.cpp derives for a real-mode call.
gc::ramses::RunParams job_params(const std::string& namelist, const Job* zoom2) {
  gc::ramses::RunParams params;
  if (auto nml = gc::io::Namelist::load(namelist); nml.is_ok()) {
    if (auto parsed = gc::ramses::RunParams::from_namelist(nml.value());
        parsed.is_ok()) {
      params = parsed.value();
    }
  }
  params.npart_dim = std::min(kResolution, kRealResolution);
  params.pm_grid = params.npart_dim * 2;
  params.box_mpc = kSizeMpc;
  params.steps = kRealSteps;
  params.seed = zoom2 != nullptr
                    ? 2000 + static_cast<std::uint64_t>(zoom2->science[0])
                    : 1000;
  params.aout = {0.4, 0.6, 0.8, 1.0};
  if (zoom2 != nullptr) {
    params.zoom_levels = std::max(1, kNbBox);
    const double cell = params.box_mpc / kResolution;
    params.zoom_centre = {static_cast<double>(zoom2->science[0]) * cell,
                          static_cast<double>(zoom2->science[1]) * cell,
                          static_cast<double>(zoom2->science[2]) * cell};
  }
  return params;
}

/// Floating-point operations and bytes streamed by one KDK step of
/// PmSolver on n particles and an m^3 mesh: two force evaluations (CIC
/// deposit, forward + inverse complex FFT, Green multiply, CIC force
/// gather), two kicks and a drift. A model of the loops, not a count.
void pm_step_cost(double n, double m, double& flops, double& bytes) {
  const double cells = m * m * m;
  const double fft_flops = 5.0 * cells * std::log2(cells);
  const double force_flops = 40.0 * n + 2.0 * fft_flops + 5.0 * cells + 112.0 * n;
  flops += 2.0 * force_flops + 18.0 * n;
  // deposit: positions+mass in, 8 cell read-modify-writes; FFT: 3 axis
  // passes x read+write of 16-byte complex; conversions and Green pass;
  // gather: positions in, 8 x 6 mesh reads, 3 doubles out; kick/drift:
  // 3 doubles in, 3 read-modify-written.
  const double force_bytes = 160.0 * n + 2.0 * 96.0 * cells + 48.0 * cells +
                             32.0 * cells + 432.0 * n;
  bytes += 2.0 * force_bytes + 3.0 * 72.0 * n;
}

gc::halo::HaloCatalog fof(const gc::ramses::Snapshot& snap) {
  const gc::ramses::ParticleSet& p = snap.particles;
  std::vector<double> vx(p.size()), vy(p.size()), vz(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    vx[i] = gc::ramses::kms_from_momentum(p.px[i], snap.aexp, snap.box_mpc);
    vy[i] = gc::ramses::kms_from_momentum(p.py[i], snap.aexp, snap.box_mpc);
    vz[i] = gc::ramses::kms_from_momentum(p.pz[i], snap.aexp, snap.box_mpc);
  }
  const gc::halo::ParticleView view{&p.x, &p.y, &p.z,    &vx,
                                    &vy,  &vz,  &p.mass, &p.id};
  return gc::halo::find_halos(view, snap.aexp, snap.box_mpc,
                              gc::halo::FofOptions{0.2, 8});
}

/// Runs one job's pipeline through the public calls, timing each stage,
/// and writes its output to `out_path` the way the service does. Returns
/// the simulation so the thread-count check can compare against it.
gc::ramses::RunResult replay_job(const gc::ramses::RunParams& params,
                                 bool zoom2, const std::string& out_path,
                                 Stages& st) {
  Clock::time_point t = Clock::now();
  gc::grafic::Generator generator(params.cosmology, params.seed);
  const gc::grafic::InitialConditions ic =
      params.zoom_levels > 0
          ? generator.multi_level(params.npart_dim, params.box_mpc,
                                  params.a_start, params.zoom_centre,
                                  params.zoom_levels)
          : generator.single_level(params.npart_dim, params.box_mpc,
                                   params.a_start);
  const double ic_s = seconds_since(t);
  st.ic_s += ic_s;

  std::vector<Clock::time_point> marks;
  double particles = 0.0;
  t = Clock::now();
  gc::ramses::RunResult run = gc::ramses::run_simulation(
      params, [&](int, double, const gc::ramses::ParticleSet& p) {
        marks.push_back(Clock::now());
        particles = static_cast<double>(p.size());
      });
  st.pm_s += std::max(0.0, seconds_since(t) - ic_s);
  for (std::size_t i = 1; i < marks.size(); ++i) {
    st.step_ms.push_back(
        std::chrono::duration<double, std::milli>(marks[i] - marks[i - 1]).count());
  }
  for (std::size_t i = 0; i < marks.size(); ++i) {
    pm_step_cost(particles, params.pm_grid, st.pm_flops, st.pm_bytes);
  }

  t = Clock::now();
  std::vector<gc::halo::HaloCatalog> catalogs;
  if (zoom2) {
    for (const gc::ramses::Snapshot& snap : run.snapshots) {
      catalogs.push_back(fof(snap));
    }
  } else {
    catalogs.push_back(fof(run.snapshots.back()));
  }
  st.fof_s += seconds_since(t);

  if (!zoom2) {
    t = Clock::now();
    GC_CHECK(gc::halo::write_catalog(out_path, catalogs.back()).is_ok());
    st.tar_s += seconds_since(t);
    return run;
  }

  t = Clock::now();
  const gc::tree::MergerForest forest = gc::tree::build_forest(catalogs);
  st.tree_s += seconds_since(t);

  t = Clock::now();
  const gc::cosmo::Cosmology cosmology(params.cosmology);
  const auto galaxies = gc::galaxy::run_sam(forest, cosmology);
  st.sam_s += seconds_since(t);

  t = Clock::now();
  gc::io::TarWriter tar;
  GC_CHECK(tar.add_text("README.txt",
                        gc::strformat("ramsesZoom2 results (resolution %d, "
                                      "%d nested boxes)\n",
                                      kResolution, kNbBox))
               .is_ok());
  for (std::size_t s = 0; s < catalogs.size(); ++s) {
    GC_CHECK(tar.add_text(gc::strformat("halos_%03zu.txt", s),
                          gc::halo::catalog_to_text(catalogs[s]))
                 .is_ok());
  }
  if (!galaxies.empty()) {
    GC_CHECK(tar.add_text("galaxies.txt",
                          gc::galaxy::catalog_to_text(galaxies.back()))
                 .is_ok());
  }
  GC_CHECK(tar.write(out_path).is_ok());
  st.tar_s += seconds_since(t);
  return run;
}

bool same_particles(const gc::ramses::RunResult& a,
                    const gc::ramses::RunResult& b) {
  if (a.snapshots.size() != b.snapshots.size()) return false;
  for (std::size_t s = 0; s < a.snapshots.size(); ++s) {
    const auto& p = a.snapshots[s].particles;
    const auto& q = b.snapshots[s].particles;
    if (p.x != q.x || p.y != q.y || p.z != q.z || p.px != q.px ||
        p.py != q.py || p.pz != q.pz) {
      return false;
    }
  }
  return true;
}

struct Replay {
  Stages stages;
  bool outputs_identical = true;
  std::size_t jobs = 0;
  double pm_speedup = 0.0;
  bool threads_identical = false;
};

/// Replays zoom1 and every zoom2 of `round`, byte-comparing each output
/// with the file the campaign returned, then re-runs the first zoom2's
/// simulation on one thread.
Replay replay_round(const Round& round, const std::string& scratch) {
  Replay replay;
  std::error_code ec;
  fs::create_directories(scratch, ec);
  const std::string z1 = scratch + "/halo_catalog.bin";
  replay_job(job_params(round.namelist, nullptr), false, z1, replay.stages);
  replay.outputs_identical = file_bytes(z1) == file_bytes(round.zoom1.file);
  ++replay.jobs;
  gc::ramses::RunResult first;
  for (std::size_t i = 0; i < round.zoom2.size(); ++i) {
    const Job& job = round.zoom2[i];
    const std::string tar = scratch + gc::strformat("/results_%04zu.tar", i);
    const gc::ramses::RunParams params = job_params(round.namelist, &job);
    gc::ramses::RunResult run = replay_job(params, true, tar, replay.stages);
    if (i == 0) first = std::move(run);
    replay.outputs_identical =
        replay.outputs_identical && file_bytes(tar) == file_bytes(job.file);
    ++replay.jobs;
  }
  if (!round.zoom2.empty()) {
    const gc::ramses::RunParams params =
        job_params(round.namelist, &round.zoom2.front());
    // Time the simulation alone at N and at 1 thread.
    Clock::time_point t = Clock::now();
    const gc::ramses::RunResult wide = gc::ramses::run_simulation(params);
    const double wide_s = seconds_since(t);
    gc::parallel::set_thread_count(1);
    t = Clock::now();
    const gc::ramses::RunResult narrow = gc::ramses::run_simulation(params);
    const double narrow_s = seconds_since(t);
    gc::parallel::set_thread_count(worker_threads());
    replay.pm_speedup = narrow_s / wide_s;
    replay.threads_identical =
        same_particles(narrow, wide) && same_particles(wide, first);
  }
  fs::remove_all(scratch, ec);
  return replay;
}

// ---- the run loop -----------------------------------------------------------

struct Rounds {
  std::vector<std::unique_ptr<Round>> all;
  RunRounds run;
};

/// Runs rounds for the measuring window. `inspect` sees the first traced
/// round. Round directories stay until the run's work directory is removed
/// at exit: on ext4, deleting files between rounds makes the next round's
/// file creation several times slower and drift from run to run.
void run_rounds(const CampaignSpec& spec, const Options& options,
                Rounds& rounds,
                const std::function<void(const Round&)>& inspect) {
  int index = 0;
  auto one = [&](RoundMode mode) {
    auto round = std::make_unique<Round>();
    campaign_round(spec, round_dir(++index), mode, *round);
    RunRounds& run = rounds.run;
    if (mode == RoundMode::kTraced) {
      if (run.traced.empty()) inspect(*round);
      run.traced.push_back(round.get());
    } else {
      run.setup_s.push_back(round->setup_s);
      if (mode == RoundMode::kPlain) run.plain.push_back(round.get());
    }
    if (mode != RoundMode::kSetupOnly) rounds.all.push_back(std::move(round));
  };
  const Clock::time_point window = Clock::now();
  do {
    one(RoundMode::kPlain);
    if (options.trace) one(RoundMode::kTraced);
    for (int i = 0; i < kSetupsPerRound && !options.trace; ++i) {
      one(RoundMode::kSetupOnly);
    }
  } while (seconds_since(window) < options.seconds ||
           (!options.trace && rounds.run.plain.size() < 3));
  while (!options.trace && rounds.run.setup_s.size() < kSetupSamples) {
    one(RoundMode::kSetupOnly);
  }
}

}  // namespace

CampaignSpec campaign_real_spec(std::uint64_t seed) {
  CampaignSpec spec;
  spec.real = true;
  spec.sub_simulations = kRealSubSimulations;
  spec.tie_seed = seed;
  return spec;
}

CampaignSpec campaign_paper_spec(std::uint64_t seed) {
  CampaignSpec spec;
  spec.sub_simulations = 100;
  spec.contention = true;
  spec.tie_seed = seed;
  return spec;
}

PaperOutcome pinned_paper_outcome() {
  PaperOutcome p;
  p.science_digest = 0xa97a67a8d32bca6eULL;
  p.makespan_s = 58523.750014873265;
  p.finding_mean_s = 0.049472214329313549;
  p.flows = 202;
  return p;
}

Gate outcome_gate(const std::string& name, const PaperOutcome& got,
                  const PaperOutcome& want) {
  const bool ok = got.science_digest == want.science_digest &&
                  got.makespan_s == want.makespan_s &&
                  got.finding_mean_s == want.finding_mean_s &&
                  got.flows == want.flows;
  return {name, ok,
          gc::strformat("digest %s makespan %.17g s finding %.17g s flows %llu",
                        hex64(got.science_digest).c_str(), got.makespan_s,
                        got.finding_mean_s,
                        static_cast<unsigned long long>(got.flows))};
}

Gate paper_gate(const PaperOutcome& got) {
  return outcome_gate("paper_campaign_pinned", got, pinned_paper_outcome());
}

std::uint64_t pinned_real_catalog_hash() { return 0x0245b9e991fd7177ULL; }

Gate catalog_gate(std::uint64_t got) {
  return {"real_catalog_hash_pinned", got == pinned_real_catalog_hash(),
          "catalog hash " + hex64(got) + ", pinned " +
              hex64(pinned_real_catalog_hash())};
}

namespace {

/// The paper campaign, checked once per campaign_real run outside the
/// measuring window: pinned outcome, bit-identical to
/// run_grid5000_campaign, identical across rounds and under the run's tie
/// seed. Its host time is dominated by per-job file staging, which on a
/// disk filesystem varies too much between runs to gate a regression on;
/// it is reported, not bounded. Traced runs add its layer counts.
void paper_check(const Options& options, Result& result, Layers* layers) {
  constexpr int kRounds = 5;
  const CampaignSpec spec = campaign_paper_spec(options.seed);
  gc::workflow::CampaignConfig config;
  config.sub_simulations = spec.sub_simulations;
  config.seed = kDeploySeed;
  config.tie_break_seed = spec.tie_seed;
  config.contention = spec.contention;
  config.services.work_dir = gc::strformat("paper_%06d", 0);
  const gc::workflow::CampaignResult reference =
      gc::workflow::run_grid5000_campaign(config);

  std::vector<std::unique_ptr<Round>> rounds;
  std::vector<double> ms;
  for (int i = 1; i <= kRounds + (layers != nullptr ? 1 : 0); ++i) {
    rounds.push_back(std::make_unique<Round>());
    const RoundMode mode = i > kRounds ? RoundMode::kTraced : RoundMode::kPlain;
    campaign_round(spec, gc::strformat("paper_%06d", i), mode, *rounds.back());
    if (mode == RoundMode::kPlain) ms.push_back(rounds.back()->run_s * 1e3);
  }
  std::vector<const RoundCore*> cores;
  for (const auto& r : rounds) {
    result.attempted += r->calls;
    result.failed += r->failed;
    cores.push_back(r.get());
  }
  result.gates.push_back(
      rounds_agree_gate("paper_rounds_reproduce_hashes", cores));
  const Round& first = *rounds.front();
  const PaperOutcome got{first.science_digest, first.makespan,
                         first.finding_mean, first.flows};
  Gate matches = outcome_gate(
      "paper_matches_run_grid5000_campaign", got,
      {reference.science_digest, reference.makespan, reference.finding_mean,
       reference.flows_completed});
  matches.ok = matches.ok && reference.failed_calls == 0;
  result.gates.push_back(matches);
  result.gates.push_back(paper_gate(got));
  result.extra("paper.campaign_ms_p50", quantile(ms, 0.5), "ms");
  if (layers == nullptr) {
    result.extra("paper.campaign_ms_max", quantile(ms, 1.0), "ms");
    result.extra("paper_makespan_err_pct",
                 std::abs(first.makespan - kPaperMakespanS) / kPaperMakespanS * 100.0,
                 "%");
    result.extra("paper_finding_err_pct",
                 std::abs(first.finding_mean * 1e3 - kPaperFindingMs) /
                     kPaperFindingMs * 100.0,
                 "%");
    return;
  }
  const Round& tr = *rounds.back();
  layers->paper_io_dirs_per_campaign = static_cast<double>(tr.io.dirs);
  layers->paper_io_files_per_campaign = static_cast<double>(tr.io.files);
  layers->paper_io_bytes_per_campaign = static_cast<double>(tr.io.bytes);
  layers->paper_des_events_per_campaign = static_cast<double>(tr.events);
  layers->paper_net_messages_per_campaign =
      static_cast<double>(tr.census.messages());
  layers->paper_net_flows_per_campaign = static_cast<double>(tr.flows);
}

}  // namespace

Result run_campaign_real(const Options& options) {
  const CampaignSpec spec = campaign_real_spec(options.seed);
  Result result;
  // Traced runs replay the first traced round's jobs stage by stage.
  Replay replay;
  Rounds rounds;
  run_rounds(spec, options, rounds, [&](const Round& round) {
    replay = replay_round(round, "replay");
  });
  add_round_gates(result, rounds.run, options.trace);
  // Every round's returned files against the pinned hash.
  std::uint64_t catalogs = pinned_real_catalog_hash();
  for (const auto& r : rounds.all) {
    if (r->catalog_hash != catalogs) {
      catalogs = r->catalog_hash;
      break;
    }
  }
  result.gates.push_back(catalog_gate(catalogs));

  if (!options.trace) {
    add_run_metrics(result, rounds.run);
    std::vector<double> ms;
    for (const RoundCore* r : rounds.run.plain) ms.push_back(r->run_s * 1e3);
    result.extra("campaign_ms_p50", quantile(ms, 0.5), "ms");
    result.extra("campaign_ms_max", quantile(ms, 1.0), "ms");
    paper_check(options, result, nullptr);
    return result;
  }

  result.gate("replay_outputs_byte_identical", replay.outputs_identical,
              std::to_string(replay.jobs) + " job outputs re-derived");
  result.gate("pm_one_thread_byte_identical", replay.threads_identical,
              gc::strformat("1 vs %zu threads", worker_threads()));

  Layers l = shared_layers(result, rounds.run);
  const Round& tr = *static_cast<const Round*>(rounds.run.traced.front());
  const Stages& st = replay.stages;
  l.ramses_pm_flops_computed = st.pm_flops;
  l.ramses_pm_bytes_computed = st.pm_bytes;
  l.parallel_pm_speedup = replay.pm_speedup;
  l.io_dirs_per_campaign = static_cast<double>(tr.io.dirs);
  l.io_files_per_campaign = static_cast<double>(tr.io.files);
  l.io_bytes_per_campaign = static_cast<double>(tr.io.bytes);
  paper_check(options, result, &l);
  add_layers(result, l);
  result.extra("grafic.ic_s", st.ic_s, "s");
  result.extra("ramses.pm_s", st.pm_s, "s");
  result.extra("ramses.step_ms_p50", median(st.step_ms), "ms");
  result.extra("halo.fof_s", st.fof_s, "s");
  result.extra("tree.build_s", st.tree_s, "s");
  result.extra("galaxy.sam_s", st.sam_s, "s");
  result.extra("io.tar_s", st.tar_s, "s");
  result.extra("replayed_jobs", static_cast<double>(replay.jobs), "count");
  result.extra("pm_threads", static_cast<double>(worker_threads()), "count");
  return result;
}

}  // namespace perfbench
