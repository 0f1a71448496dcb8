// B2 — data locality ablation over the 22-sub-sim zoom campaign.
//
// Sweeps the data-management modes the DTM subsystem adds on top of the
// paper's deployment: everything volatile (the paper's Section 4.2.3
// setting, every 200 MiB result tarball ships home across RENATER),
// persistent outputs (results stay on the SED that produced them, only
// ids travel), and persistent + write-replication scheduled with the
// locality-aware mct-data policy (the estimation vector's bytes-to-move
// term steers zoom2 calls toward replica holders).
//
// Emits BENCH_datalocality.json: modeled WAN (inter-site) bytes, total
// wire bytes, mean zoom2 latency, and makespan per mode, so the WAN
// saving is machine-checkable across PRs.
#include <cstdio>
#include <fstream>
#include <string>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "common/units.hpp"
#include "obs/session.hpp"
#include "workflow/campaign.hpp"

namespace {

struct Row {
  const char* label;
  gc::diet::Persistence mode;  ///< inputs and service outputs
  int replicas;
  const char* policy;
};

}  // namespace

int main(int argc, char** argv) {
  gc::set_default_log_level(gc::LogLevel::kWarn);
  const gc::CliArgs args(argc, argv);
  const gc::obs::Session obs = gc::obs::Session::from_cli(args);
  const int sub_sims = static_cast<int>(args.get_int("subsims", 22));
  const std::string json_path =
      args.get("json", "BENCH_datalocality.json");

  const Row rows[] = {
      {"volatile", gc::diet::Persistence::kVolatile, 1, "default"},
      {"persistent", gc::diet::Persistence::kPersistent, 1, "default"},
      {"persistent+mct-data", gc::diet::Persistence::kPersistent, 2,
       "mct-data"},
  };

  std::printf("B2: data locality (%d zoom2 requests, 11 SEDs)\n", sub_sims);
  std::printf("%-22s %10s %14s %14s %12s %10s\n", "mode", "policy",
              "WAN bytes", "wire total", "mean lat", "makespan");

  std::ofstream json(json_path, std::ios::trunc);
  json << "[\n";

  std::int64_t volatile_wan = 0;
  std::int64_t best_wan = 0;
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    const Row& row = rows[i];
    gc::workflow::CampaignConfig config;
    config.sub_simulations = sub_sims;
    config.policy = row.policy;
    config.input_mode = row.mode;
    config.services.output_mode = row.mode;
    config.sed_tuning.replication_factor = row.replicas;
    const gc::workflow::CampaignResult result =
        gc::workflow::run_grid5000_campaign(config);

    double mean_latency = 0.0;
    for (const auto& record : result.zoom2) {
      mean_latency += record.latency();
    }
    if (!result.zoom2.empty()) {
      mean_latency /= static_cast<double>(result.zoom2.size());
    }

    if (i == 0) volatile_wan = result.wan_bytes;
    best_wan = result.wan_bytes;

    std::printf("%-22s %10s %14s %14s %12s %10s\n", row.label, row.policy,
                gc::format_bytes(result.wan_bytes).c_str(),
                gc::format_bytes(result.network_bytes).c_str(),
                gc::format_duration(mean_latency).c_str(),
                gc::format_duration(result.makespan).c_str());

    char entry[512];
    std::snprintf(entry, sizeof entry,
                  "  {\"mode\": \"%s\", \"policy\": \"%s\", "
                  "\"replicas\": %d, \"sub_simulations\": %d, "
                  "\"wan_bytes\": %lld, \"total_bytes\": %lld, "
                  "\"mean_latency_s\": %.3f, \"makespan_s\": %.3f, "
                  "\"failed_calls\": %llu}%s\n",
                  row.label, row.policy, row.replicas, sub_sims,
                  static_cast<long long>(result.wan_bytes),
                  static_cast<long long>(result.network_bytes), mean_latency,
                  result.makespan,
                  static_cast<unsigned long long>(result.failed_calls),
                  i + 1 < std::size(rows) ? "," : "");
    json << entry;
  }
  json << "]\n";

  std::printf("\nshape: volatile ships every result tarball across RENATER; "
              "persistent outputs stay where they were produced, so WAN "
              "traffic collapses to ids and namelists. mct-data additionally "
              "steers repeat work toward replica holders.\n");
  std::printf("wrote %s\n", json_path.c_str());

  if (best_wan >= volatile_wan) {
    std::printf("WARNING: persistent modes did not reduce WAN bytes\n");
    return 1;
  }
  return 0;
}
