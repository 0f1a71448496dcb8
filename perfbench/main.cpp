// gcbench: one process per benchmark run.
//
//   gcbench --workload <serving_broadcast|campaign_real>
//           --seed N --seconds S --trace 0|1 --work-dir DIR [--git-rev REV]
//
// Prints provenance, every metric with its unit, every correctness gate,
// and finally one JSON line {"correct", "attempted", "failed", "metrics"}.
// Exits 0 only when every gate passed. perfbench/run.py builds this binary
// and is the benchmark's entry point.
//
// The workload runs inside DIR, which must not exist yet: it is created,
// made the working directory, and removed at exit, so every path the run
// writes is relative and of the same length wherever it runs.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/log.hpp"
#include "harness.hpp"
#include "parallel/pool.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: gcbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--git-rev REV]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value != "0";
    } else if (key == "--work-dir") {
      options.work_dir = value;
    } else if (key == "--git-rev") {
      options.git_rev = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || options.workload.empty() || options.work_dir.empty() ||
      !(options.seconds > 0.0)) {
    return usage();
  }

  gc::set_default_log_level(gc::LogLevel::kWarn);
  gc::parallel::set_thread_count(perfbench::worker_threads());
  perfbench::Result (*workload)(const perfbench::Options&) = nullptr;
  if (options.workload == "serving_broadcast") {
    workload = perfbench::run_serving_broadcast;
  } else if (options.workload == "campaign_real") {
    workload = perfbench::run_campaign_real;
  } else {
    std::fprintf(stderr, "gcbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }

  if (std::filesystem::exists(options.work_dir)) {
    std::fprintf(stderr, "gcbench: --work-dir %s already exists\n",
                 options.work_dir.c_str());
    return 2;
  }
  const std::filesystem::path home = std::filesystem::current_path();
  const perfbench::ScratchDir work(
      std::filesystem::absolute(options.work_dir).string());
  std::filesystem::current_path(work.path());
  const perfbench::Result result = workload(options);
  std::filesystem::current_path(home);
  return perfbench::emit(options, result);
}
