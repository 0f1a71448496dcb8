// Shared emitter for BENCH_parallel.json — the machine-readable record of
// kernel wall-times vs thread count that tracks the perf trajectory across
// PRs. The file is a flat JSON array of
//   {"kernel": ..., "n": ..., "threads": ..., "ms": ..., "speedup": ...}
// objects; `speedup` is relative to the 1-thread run of the same kernel.
// bench_v2_micro's rows that time the FFT or the PM force gather also
// carry "isa": the instruction set their instances ran at
// (math::host_isa()).
// bench_v2_micro (--parallel_sweep) rewrites the file; bench_v1 (--json)
// appends its end-to-end entries.
#pragma once

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.hpp"

namespace gc::bench {

struct ParallelEntry {
  std::string kernel;
  long n = 0;            ///< problem size (mesh/particle dimension or count)
  std::size_t threads = 0;
  double ms = 0.0;
  double speedup = 1.0;  ///< ms(threads=1) / ms
  std::string isa;       ///< vector instances' instruction set, "" if none
};

inline std::string to_json(const ParallelEntry& e) {
  const std::string isa =
      e.isa.empty() ? "" : strformat(", \"isa\": \"%s\"", e.isa.c_str());
  return strformat(
      "  {\"kernel\": \"%s\", \"n\": %ld, \"threads\": %zu, "
      "\"ms\": %.3f, \"speedup\": %.3f%s}",
      e.kernel.c_str(), e.n, e.threads, e.ms, e.speedup, isa.c_str());
}

/// Overwrites `path` with a JSON array of `entries`.
inline bool write_parallel_entries(const std::string& path,
                                   const std::vector<ParallelEntry>& entries) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "[\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out << to_json(entries[i]) << (i + 1 < entries.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

/// Appends `entries` to the JSON array at `path` (creates it if missing or
/// not a well-formed array).
inline bool append_parallel_entries(const std::string& path,
                                    const std::vector<ParallelEntry>& entries) {
  std::string existing;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      existing = buffer.str();
    }
  }
  const std::size_t close = existing.rfind(']');
  if (close == std::string::npos) {
    return write_parallel_entries(path, entries);
  }
  // Splice before the final ']'; keep existing entries untouched.
  std::string head = existing.substr(0, close);
  while (!head.empty() && (head.back() == '\n' || head.back() == ' ')) {
    head.pop_back();
  }
  const bool had_entries = !head.empty() && head.back() != '[';
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << head;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out << (i == 0 && !had_entries ? "\n" : ",\n") << to_json(entries[i]);
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

}  // namespace gc::bench
