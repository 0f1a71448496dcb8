// V2 — google-benchmark micro-benchmarks for the hot substrate paths:
// FFT, CIC deposit, FoF halo finding, the message codec and profile
// serialization.
//
// `--parallel_sweep[=path]` skips google-benchmark and instead sweeps
// GC_THREADS over {1, 2, 4} for every pool-backed kernel, verifies the
// results are byte-identical across thread counts, and writes the
// machine-readable BENCH_parallel.json (kernel, n, threads, ms, speedup,
// and on rows that time the FFT or force-gather instances their
// instruction set).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "obs/session.hpp"
#include "cosmo/cosmology.hpp"
#include "diet/profile.hpp"
#include "grafic/ic.hpp"
#include "halo/halomaker.hpp"
#include "io/namelist.hpp"
#include "math/fft.hpp"
#include "net/codec.hpp"
#include "parallel/pool.hpp"
#include "parallel_json.hpp"
#include "ramses/pm.hpp"
#include "ramses/simulation.hpp"

namespace {

void BM_Fft3D(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  gc::parallel::set_thread_count(static_cast<std::size_t>(state.range(1)));
  std::vector<gc::math::Complex> data(n * n * n);
  gc::Rng rng(1);
  for (auto& v : data) v = {rng.normal(), 0.0};
  for (auto _ : state) {
    gc::math::fft3(data, n, false);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(n * n * n));
  gc::parallel::set_thread_count(0);
}
BENCHMARK(BM_Fft3D)
    ->Args({16, 1})
    ->Args({32, 1})
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({64, 4});

gc::ramses::ParticleSet random_particles(std::size_t n, std::uint64_t seed) {
  gc::ramses::ParticleSet particles;
  particles.reserve(n);
  gc::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    particles.push_back(rng.uniform(), rng.uniform(), rng.uniform(), 0.0,
                        0.0, 0.0, 1.0 / static_cast<double>(n), i + 1, 0);
  }
  return particles;
}

void BM_CicDeposit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  gc::parallel::set_thread_count(static_cast<std::size_t>(state.range(1)));
  const auto particles = random_particles(n * n * n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gc::ramses::cic_deposit(particles, static_cast<int>(n)));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(n * n * n));
  gc::parallel::set_thread_count(0);
}
BENCHMARK(BM_CicDeposit)->Args({16, 1})->Args({32, 1})->Args({32, 4});

void BM_FofHalos(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  // Clustered distribution: half uniform, half in 8 Gaussian blobs.
  gc::ramses::ParticleSet p = random_particles(n / 2, 5);
  gc::Rng rng(6);
  for (std::size_t i = n / 2; i < n; ++i) {
    const double cx = 0.25 + 0.5 * static_cast<double>(i % 2);
    const double cy = 0.25 + 0.5 * static_cast<double>((i / 2) % 2);
    const double cz = 0.25 + 0.5 * static_cast<double>((i / 4) % 2);
    auto wrap = [](double v) { return v - std::floor(v); };
    p.push_back(wrap(cx + rng.normal(0.0, 0.01)),
                wrap(cy + rng.normal(0.0, 0.01)),
                wrap(cz + rng.normal(0.0, 0.01)), 0.0, 0.0, 0.0,
                1.0 / static_cast<double>(n), i + 1, 0);
  }
  std::vector<double> zeros(p.size(), 0.0);
  gc::halo::ParticleView view{&p.x, &p.y, &p.z, &zeros,
                              &zeros, &zeros, &p.mass, &p.id};
  for (auto _ : state) {
    benchmark::DoNotOptimize(gc::halo::find_halos(view, 1.0, 100.0));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_FofHalos)->Arg(1 << 12)->Arg(1 << 14);

void BM_CodecRoundtrip(benchmark::State& state) {
  for (auto _ : state) {
    gc::net::Writer writer;
    for (int i = 0; i < 64; ++i) {
      writer.u64(static_cast<std::uint64_t>(i));
      writer.f64(i * 0.5);
      writer.str("candidate");
    }
    const gc::net::Bytes bytes = writer.data();
    gc::net::Reader reader(bytes);
    std::uint64_t sum = 0;
    for (int i = 0; i < 64; ++i) {
      sum += reader.u64();
      benchmark::DoNotOptimize(reader.f64());
      benchmark::DoNotOptimize(reader.str());
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_CodecRoundtrip);

void BM_ProfileSerialize(benchmark::State& state) {
  gc::diet::Profile profile("ramsesZoom2", 6, 6, 8);
  profile.arg(0).set_file("/tmp/zoom.nml", gc::diet::Persistence::kVolatile,
                          4096);
  for (int i = 1; i <= 6; ++i) {
    profile.arg(i).set_scalar<std::int32_t>(i, gc::diet::BaseType::kInt,
                                            gc::diet::Persistence::kVolatile);
  }
  const gc::diet::ProfileDesc service = profile.desc();
  for (auto _ : state) {
    gc::net::Writer writer;
    profile.serialize_inputs(writer);
    const gc::net::Bytes bytes = writer.data();
    gc::net::Reader reader(bytes);
    benchmark::DoNotOptimize(
        gc::diet::Profile::deserialize_inputs(service, 6, 6, 8, reader));
  }
}
BENCHMARK(BM_ProfileSerialize);

// ---------------------------------------------------------------------------
// Thread-count sweep (--parallel_sweep): timings + byte-identity checks for
// every pool-backed kernel, written to BENCH_parallel.json.

/// Best-of-`reps` wall time of fn(), in milliseconds.
template <typename Fn>
double time_ms(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

int run_parallel_sweep(const std::string& path) {
  const std::vector<std::size_t> thread_counts = {1, 2, 4};
  std::vector<gc::bench::ParallelEntry> entries;
  bool deterministic = true;

  // `isa` tags the rows whose timing runs the vector instances: fft3,
  // solve_poisson, both cic_deposit rows, pm_step, grafic_2lpt,
  // interpolate_forces and wrap_positions.
  const char* const isa = gc::math::isa_name(gc::math::host_isa());
  auto record = [&](const std::string& kernel, long n,
                    const std::vector<double>& ms, const char* row_isa = "") {
    for (std::size_t t = 0; t < thread_counts.size(); ++t) {
      entries.push_back({kernel, n, thread_counts[t], ms[t],
                         ms[t] > 0.0 ? ms[0] / ms[t] : 1.0, row_isa});
      std::printf("%-24s n=%-7ld threads=%zu  %9.2f ms  speedup %.2fx\n",
                  kernel.c_str(), n, thread_counts[t], ms[t],
                  ms[t] > 0.0 ? ms[0] / ms[t] : 1.0);
    }
  };

  // fft3 on a 64^3 grid, then on campaign_real's 32^3 PM mesh (best of
  // more runs: one transform there takes well under a millisecond).
  for (const auto& [n, reps] : {std::pair<std::size_t, int>{64, 3}, {32, 20}}) {
    std::vector<gc::math::Complex> init(n * n * n);
    gc::Rng rng(1);
    for (auto& v : init) v = {rng.normal(), 0.0};
    std::vector<gc::math::Complex> reference;
    std::vector<double> ms;
    for (const std::size_t t : thread_counts) {
      gc::parallel::set_thread_count(t);
      auto data = init;
      gc::math::fft3(data, n, false);  // warm twiddles + pool
      data = init;
      ms.push_back(time_ms(reps, [&] { gc::math::fft3(data, n, false); }));
      auto once = init;
      gc::math::fft3(once, n, false);
      if (t == thread_counts.front()) {
        reference = once;
      } else {
        deterministic &= same_bytes(reference, once);
      }
    }
    record("fft3", static_cast<long>(n), ms, isa);
  }

  // The Poisson solve on campaign_real's 32^3 PM mesh: two fft3 calls, the
  // Green multiply and the field copies of one force evaluation.
  {
    const std::size_t n = 32;
    gc::math::Grid3<double> delta(n);
    gc::Rng rng(3);
    for (double& v : delta.raw()) v = rng.normal();
    const double rhs = 1.5 * 0.27 / 0.6;
    std::vector<double> reference;
    std::vector<double> ms;
    for (const std::size_t t : thread_counts) {
      gc::parallel::set_thread_count(t);
      ms.push_back(time_ms(20, [&] {
        benchmark::DoNotOptimize(gc::ramses::solve_poisson(delta, rhs));
      }));
      const auto phi = gc::ramses::solve_poisson(delta, rhs);
      if (t == thread_counts.front()) {
        reference = phi.raw();
      } else {
        deterministic &= same_bytes(reference, phi.raw());
      }
    }
    record("solve_poisson", static_cast<long>(n), ms, isa);
  }

  // CIC deposit: 64^3 particles onto a 64^3 mesh.
  {
    const auto particles = random_particles(64 * 64 * 64, 4);
    std::vector<double> reference;
    std::vector<double> ms;
    for (const std::size_t t : thread_counts) {
      gc::parallel::set_thread_count(t);
      ms.push_back(time_ms(3, [&] {
        benchmark::DoNotOptimize(gc::ramses::cic_deposit(particles, 64));
      }));
      const auto grid = gc::ramses::cic_deposit(particles, 64);
      if (t == thread_counts.front()) {
        reference = grid.raw();
      } else {
        deterministic &= same_bytes(reference, grid.raw());
      }
    }
    record("cic_deposit", 64, ms, isa);
  }

  // Full PM step (deposit + Poisson + forces + kick/drift), 32^3 particles
  // on a 64^3 mesh, from fresh forces: two force evaluations, the cost of a
  // run's first step (every later step reuses the forces the step before
  // it computed and evaluates once).
  {
    gc::cosmo::Params params;
    const gc::cosmo::Cosmology cosmology(params);
    const gc::ramses::PmSolver solver(cosmology, {64, params.omega_m});
    const auto init = random_particles(32 * 32 * 32, 7);
    std::vector<double> reference;
    std::vector<double> ms;
    for (const std::size_t t : thread_counts) {
      gc::parallel::set_thread_count(t);
      ms.push_back(time_ms(3, [&] {
        auto p = init;
        gc::ramses::Forces forces;
        solver.step(p, 0.2, 0.01, forces);
        benchmark::DoNotOptimize(p.x.data());
      }));
      auto p = init;
      gc::ramses::Forces forces;
      solver.step(p, 0.2, 0.01, forces);
      if (t == thread_counts.front()) {
        reference = p.x;
      } else {
        deterministic &= same_bytes(reference, p.x);
      }
    }
    record("pm_step", 32, ms, isa);
  }

  // GRAFIC 2LPT second-order displacement on a 32^3 grid.
  {
    const std::size_t n = 32;
    std::vector<float> delta(n * n * n);
    gc::Rng rng(11);
    for (auto& v : delta) v = static_cast<float>(0.1 * rng.normal());
    std::vector<float> reference;
    std::vector<double> ms;
    for (const std::size_t t : thread_counts) {
      gc::parallel::set_thread_count(t);
      ms.push_back(time_ms(3, [&] {
        benchmark::DoNotOptimize(gc::grafic::second_order_displacement(
            delta, static_cast<int>(n), 100.0));
      }));
      const auto psi2 = gc::grafic::second_order_displacement(
          delta, static_cast<int>(n), 100.0);
      if (t == thread_counts.front()) {
        reference = psi2[0];
      } else {
        deterministic &= same_bytes(reference, psi2[0]);
      }
    }
    record("grafic_2lpt", 32, ms, isa);
  }

  // FoF halo finding on the clustered 2^14-particle distribution.
  {
    const std::size_t n = 1 << 14;
    gc::ramses::ParticleSet p = random_particles(n / 2, 5);
    gc::Rng rng(6);
    for (std::size_t i = n / 2; i < n; ++i) {
      const double cx = 0.25 + 0.5 * static_cast<double>(i % 2);
      const double cy = 0.25 + 0.5 * static_cast<double>((i / 2) % 2);
      const double cz = 0.25 + 0.5 * static_cast<double>((i / 4) % 2);
      auto wrap = [](double v) { return v - std::floor(v); };
      p.push_back(wrap(cx + rng.normal(0.0, 0.01)),
                  wrap(cy + rng.normal(0.0, 0.01)),
                  wrap(cz + rng.normal(0.0, 0.01)), 0.0, 0.0, 0.0,
                  1.0 / static_cast<double>(n), i + 1, 0);
    }
    std::vector<double> zeros(p.size(), 0.0);
    gc::halo::ParticleView view{&p.x, &p.y, &p.z, &zeros,
                                &zeros, &zeros, &p.mass, &p.id};
    std::vector<double> reference;  // halo masses, order included
    std::vector<double> ms;
    for (const std::size_t t : thread_counts) {
      gc::parallel::set_thread_count(t);
      ms.push_back(time_ms(3, [&] {
        benchmark::DoNotOptimize(gc::halo::find_halos(view, 1.0, 100.0));
      }));
      const auto catalog = gc::halo::find_halos(view, 1.0, 100.0);
      std::vector<double> masses;
      for (const auto& h : catalog.halos) masses.push_back(h.mass);
      if (t == thread_counts.front()) {
        reference = masses;
      } else {
        deterministic &= same_bytes(reference, masses);
      }
    }
    record("fof", static_cast<long>(n), ms);
  }

  // campaign_real's first zoom2 job: 16^3, two nested levels, 24 steps,
  // centred on zoom1's heaviest halo at 128 cells a side, as the campaign
  // places it (its namelist round trip included).
  {
    gc::ramses::RunParams shipped;
    shipped.npart_dim = 128;
    shipped.box_mpc = 100.0;
    auto params = gc::ramses::RunParams::from_namelist(
                      gc::io::Namelist::parse(shipped.to_namelist()).value())
                      .value();
    params.npart_dim = 16;
    params.pm_grid = 32;
    params.steps = 24;
    params.seed = 1000;
    params.aout = {0.4, 0.6, 0.8, 1.0};
    std::vector<double> zeros;
    auto fof = [&](const gc::ramses::Snapshot& snap) {
      const gc::ramses::ParticleSet& q = snap.particles;
      zeros.assign(q.size(), 0.0);
      return gc::halo::find_halos(
          {&q.x, &q.y, &q.z, &zeros, &zeros, &zeros, &q.mass, &q.id},
          snap.aexp, snap.box_mpc, gc::halo::FofOptions{0.2, 8});
    };
    const gc::halo::Halo halo =
        fof(gc::ramses::run_simulation(params).snapshots.back()).halos.front();
    const double cell = params.box_mpc / 128.0;
    const int cx = static_cast<int>(halo.x * 128);
    params.seed = 2000 + static_cast<std::uint64_t>(cx);
    params.zoom_levels = 2;
    params.zoom_centre = {cx * cell, static_cast<int>(halo.y * 128) * cell,
                          static_cast<int>(halo.z * 128) * cell};
    const gc::ramses::RunResult zoom2 = gc::ramses::run_simulation(params);

    // FoF on its four outputs. Velocities are zero: they do not change
    // which pairs link.
    std::vector<double> reference;  // halo masses of every output
    std::vector<double> ms;
    for (const std::size_t t : thread_counts) {
      gc::parallel::set_thread_count(t);
      ms.push_back(time_ms(5, [&] {
        for (const auto& snap : zoom2.snapshots) {
          benchmark::DoNotOptimize(fof(snap));
        }
      }));
      std::vector<double> masses;
      for (const auto& snap : zoom2.snapshots) {
        for (const auto& h : fof(snap).halos) masses.push_back(h.mass);
      }
      if (t == thread_counts.front()) {
        reference = masses;
      } else {
        deterministic &= same_bytes(reference, masses);
      }
    }
    record("fof_zoom2", static_cast<long>(zoom2.particle_count), ms);

    // The PM force gather on its final particles, from the potential of
    // their own 32^3 mesh: one of the job's 25 force evaluations.
    const gc::ramses::ParticleSet& last = zoom2.snapshots.back().particles;
    const gc::math::Grid3<double> phi = gc::ramses::solve_poisson(
        gc::ramses::cic_deposit(last, params.pm_grid),
        1.5 * params.cosmology.omega_m / zoom2.snapshots.back().aexp);
    std::vector<double> forces_reference;
    ms.clear();
    for (const std::size_t t : thread_counts) {
      gc::parallel::set_thread_count(t);
      ms.push_back(time_ms(20, [&] {
        benchmark::DoNotOptimize(gc::ramses::interpolate_forces(phi, last));
      }));
      const auto acc = gc::ramses::interpolate_forces(phi, last);
      if (t == thread_counts.front()) {
        forces_reference = acc[0];
      } else {
        deterministic &= same_bytes(forces_reference, acc[0]);
      }
    }
    record("interpolate_forces", static_cast<long>(last.size()), ms,
           isa);

    // The CIC deposit of the same particles onto the 32^3 mesh: the
    // evaluation's other particle pass.
    std::vector<double> deposit_reference;
    ms.clear();
    for (const std::size_t t : thread_counts) {
      gc::parallel::set_thread_count(t);
      ms.push_back(time_ms(20, [&] {
        benchmark::DoNotOptimize(gc::ramses::cic_deposit(last, params.pm_grid));
      }));
      const auto grid = gc::ramses::cic_deposit(last, params.pm_grid);
      if (t == thread_counts.front()) {
        deposit_reference = grid.raw();
      } else {
        deterministic &= same_bytes(deposit_reference, grid.raw());
      }
    }
    record("cic_deposit", static_cast<long>(last.size()), ms, isa);

    // The periodic wrap that ends each drift, on those particles moved a
    // little across the box faces (the copy is outside the timing).
    gc::ramses::ParticleSet moved = last;
    for (std::size_t p = 0; p < moved.size(); ++p) {
      moved.x[p] += 0.01;
      moved.y[p] -= 0.01;
    }
    std::vector<double> wrap_reference;
    ms.clear();
    for (const std::size_t t : thread_counts) {
      gc::parallel::set_thread_count(t);
      double best = 1e300;
      for (int r = 0; r < 20; ++r) {
        gc::ramses::ParticleSet p = moved;
        best = std::min(best, time_ms(1, [&] { p.wrap_positions(); }));
      }
      ms.push_back(best);
      gc::ramses::ParticleSet p = moved;
      p.wrap_positions();
      if (t == thread_counts.front()) {
        wrap_reference = p.x;
      } else {
        deterministic &= same_bytes(wrap_reference, p.x);
      }
    }
    record("wrap_positions", static_cast<long>(moved.size()), ms, isa);
  }

  gc::parallel::set_thread_count(0);
  std::printf("instruction set: %s\n", isa);
  std::printf("byte-identical across thread counts: %s\n",
              deterministic ? "yes" : "NO — DETERMINISM VIOLATION");
  if (!gc::bench::write_parallel_entries(path, entries)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu entries)\n", path.c_str(), entries.size());
  return deterministic ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  // google-benchmark owns the flag parsing here, so the session is handed
  // no flags and observability comes from the library's environment
  // fallbacks alone (GC_TRACE, GC_METRICS, ...; see obs/session.hpp).
  const gc::obs::Session obs = gc::obs::Session::from_cli(gc::CliArgs(1, argv));
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--parallel_sweep", 0) == 0) {
      const std::size_t eq = arg.find('=');
      const std::string path =
          eq == std::string::npos ? "BENCH_parallel.json" : arg.substr(eq + 1);
      return run_parallel_sweep(path);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
