#include "harness.hpp"

#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

namespace perfbench {

namespace fs = std::filesystem;

bool Result::correct() const {
  if (failed != 0 || attempted == 0) return false;
  return std::all_of(gates.begin(), gates.end(),
                     [](const Gate& g) { return g.ok; });
}

namespace {

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int emit(const Options& options, const Result& in) {
  Result result = in;
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.gate("finite:" + m.name, false, "metric is not a finite number");
    }
  }
  std::printf("# workload %s seed %llu seconds %g trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
#ifdef GC_CHECK_INVARIANTS
  const char* gc_check = "on";
#else
  const char* gc_check = "off";
#endif
  std::printf(
      "# provenance nproc=%u threads=%zu build=%s gc_check=%s compiler=\"%s\" "
      "git_rev=%s workdir_fs=%s\n",
      std::thread::hardware_concurrency(), worker_threads(),
      PERFBENCH_BUILD_TYPE, gc_check, PERFBENCH_COMPILER,
      options.git_rev.c_str(), filesystem_type(options.work_dir).c_str());
  for (const Metric& m : result.metrics) {
    std::printf("metric %-32s %s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  for (const Metric& m : result.extras) {
    std::printf("extra  %-32s %s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  for (const Gate& g : result.gates) {
    std::printf("gate   %-32s %s  %s\n", g.name.c_str(), g.ok ? "ok" : "FAIL",
                g.detail.c_str());
  }
  const bool ok = result.correct();
  std::string json = "{\"correct\": ";
  json += ok ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + number(v) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double rank_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1))];
}

double tail_quantile(std::size_t n) {
  for (const double q : {0.999, 0.99, 0.98, 0.95, 0.90, 0.75, 0.50}) {
    // Tolerance: 100 * (1 - 0.90) is 9.999999999999998 in doubles.
    if (static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9) return q;
  }
  return 1.0;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string filesystem_type(const std::string& path) {
  struct statfs info {};
  if (path.empty() || statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x794C7630UL: return "overlay";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x6969UL: return "nfs";
    case 0x65735546UL: return "fuse";
    default: {
      char buf[24];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return buf;
    }
  }
}

std::size_t worker_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

TreeCensus census_tree(const std::string& root) {
  TreeCensus census;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(root, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_directory(ec)) {
      ++census.dirs;
    } else if (it->is_regular_file(ec)) {
      ++census.files;
      census.bytes += it->file_size(ec);
    }
  }
  return census;
}

ScratchDir::ScratchDir(std::string path) : path_(std::move(path)) {
  std::error_code ec;
  fs::create_directories(path_, ec);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

}  // namespace perfbench
