// V1 — substrate validation: the RAMSES-style solver on the thread pool.
//
// The paper runs RAMSES over MPI on 16 machines per SED; here the solve
// function starts the run as a pool job and the kernels split their loops
// over the same pool (Grid'5000-scale decomposition lives in the
// calibrated cost model). This bench times one run_simulation at 1, 2 and
// 4 pool threads and checks that every pooled run's snapshots are
// byte-identical to the 1-thread run: on a mismatch it exits 1 and
// appends no rows.
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "obs/session.hpp"
#include "parallel/pool.hpp"
#include "parallel_json.hpp"
#include "ramses/simulation.hpp"

namespace {

/// Byte-level equality of the final snapshots of two runs.
bool snapshots_identical(const gc::ramses::RunResult& a,
                         const gc::ramses::RunResult& b) {
  if (a.snapshots.size() != b.snapshots.size()) return false;
  for (std::size_t s = 0; s < a.snapshots.size(); ++s) {
    const auto& pa = a.snapshots[s].particles;
    const auto& pb = b.snapshots[s].particles;
    auto same = [](const std::vector<double>& u, const std::vector<double>& v) {
      return u.size() == v.size() &&
             (u.empty() ||
              std::memcmp(u.data(), v.data(), u.size() * sizeof(double)) == 0);
    };
    if (!same(pa.x, pb.x) || !same(pa.y, pb.y) || !same(pa.z, pb.z) ||
        !same(pa.px, pb.px) || !same(pa.py, pb.py) || !same(pa.pz, pb.pz)) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  gc::set_default_log_level(gc::LogLevel::kWarn);
  const gc::CliArgs args(argc, argv);
  const gc::obs::Session obs = gc::obs::Session::from_cli(args);
  const std::string json_path = args.get("json", "");

  gc::ramses::RunParams params;
  params.npart_dim = 16;
  params.pm_grid = 32;
  params.steps = 12;
  params.a_start = 0.1;
  params.seed = 99;

  std::printf("V1: PM/N-body on the thread pool (%d^3 particles, %d^3 mesh, "
              "%d steps)\n",
              params.npart_dim, params.pm_grid, params.steps);

  // Serial reference (1 pool thread).
  gc::parallel::set_thread_count(1);
  const auto t0 = std::chrono::steady_clock::now();
  const gc::ramses::RunResult serial = gc::ramses::run_simulation(params);
  const auto t1 = std::chrono::steady_clock::now();
  const double serial_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  std::printf("serial: %zu particles, %d steps, %.0f ms (%.1f ms/step)\n",
              serial.particle_count, serial.steps_taken, serial_ms,
              serial_ms / params.steps);

  // Pool scaling of the same run: wall clock per GC_THREADS, with the
  // byte-identity guarantee checked against the 1-thread reference.
  std::printf("\npool threads:\n%8s %12s %10s %12s\n", "threads", "wall ms",
              "speedup", "identical");
  std::vector<gc::bench::ParallelEntry> entries;
  entries.push_back(
      {"run_simulation", params.npart_dim, 1, serial_ms, 1.0, ""});
  bool all_identical = true;
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    gc::parallel::set_thread_count(threads);
    const auto s0 = std::chrono::steady_clock::now();
    const gc::ramses::RunResult pooled = gc::ramses::run_simulation(params);
    const auto s1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(s1 - s0).count();
    const bool identical = snapshots_identical(serial, pooled);
    all_identical = all_identical && identical;
    std::printf("%8zu %12.0f %10.2f %12s\n", threads, ms, serial_ms / ms,
                identical ? "yes" : "NO");
    entries.push_back({"run_simulation", params.npart_dim, threads, ms,
                       serial_ms / ms, ""});
  }
  gc::parallel::set_thread_count(0);
  if (!all_identical) {
    std::fprintf(stderr,
                 "V1: a pooled run's snapshots differ from the 1-thread run; "
                 "no rows appended\n");
    return 1;
  }
  if (!json_path.empty()) {
    gc::bench::append_parallel_entries(json_path, entries);
    std::printf("appended %zu entries to %s\n", entries.size(),
                json_path.c_str());
  }
  return 0;
}
