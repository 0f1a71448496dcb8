// A4 — fault injection: a SED dies during the campaign.
//
// Not evaluated in the paper (its run had no failures), but the paper's
// architecture implies the recovery paths this bench exercises:
//   - agents schedule with partial information when a child misses the
//     collect timeout (Section 2.1's hierarchy tolerates silence);
//   - unresponsive children are evicted after repeated timeouts;
//   - clients bound calls with deadlines and resubmit, so jobs queued on
//     the dead SED are re-run elsewhere.
//
// Scenario A: a Toulouse SED dies during part 1 (before any zoom2 job is
// placed). Expected: two slightly slow scheduling rounds (timeout), then
// eviction; all 100 jobs complete on 10 SEDs; no failures.
//
// Scenario B: the same SED dies 2h into part 2 with ~7 of its jobs still
// queued. With a 16h call deadline and 2 retries, the lost jobs resubmit
// and the campaign completes with zero failed calls.
#include <cstdio>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "common/units.hpp"
#include "obs/session.hpp"
#include "workflow/campaign.hpp"

namespace {

void report(const char* label, const gc::workflow::CampaignResult& result,
            double baseline_makespan) {
  std::printf("%-24s makespan %16s (%+5.1f%%)  failed %llu  resubmitted "
              "%llu\n",
              label, gc::format_duration(result.makespan).c_str(),
              100.0 * (result.makespan - baseline_makespan) /
                  baseline_makespan,
              static_cast<unsigned long long>(result.failed_calls),
              static_cast<unsigned long long>(result.resubmissions));
}

}  // namespace

int main(int argc, char** argv) {
  gc::set_default_log_level(gc::LogLevel::kOff);  // timeouts/evictions are expected
  const gc::CliArgs args(argc, argv);
  const gc::obs::Session obs = gc::obs::Session::from_cli(args);

  std::printf("A4: SED failure during the campaign (victim: "
              "SeD-violette-0, Toulouse)\n\n");

  gc::workflow::CampaignConfig healthy;
  const gc::workflow::CampaignResult baseline =
      gc::workflow::run_grid5000_campaign(healthy);
  report("no fault", baseline, baseline.makespan);

  // The Toulouse SEDs are deployment indexes 7 and 8 (see
  // platform/grid5000.cpp ordering).
  constexpr int kVictim = 7;

  using Kind = gc::fault::ProcessFault::Kind;
  gc::workflow::CampaignConfig scenario_a;
  scenario_a.process_faults = {{Kind::kSedCrash, kVictim, 600.0}};  // part 1
  const gc::workflow::CampaignResult a =
      gc::workflow::run_grid5000_campaign(scenario_a);
  report("dies before burst", a, baseline.makespan);

  gc::workflow::CampaignConfig scenario_b;
  scenario_b.process_faults = {  // 2h into part 2
      {Kind::kSedCrash, kVictim, 4511.0 + 2.0 * 3600.0}};
  scenario_b.call_deadline_s = 16.0 * 3600.0;
  scenario_b.max_retries = 2;
  const gc::workflow::CampaignResult b =
      gc::workflow::run_grid5000_campaign(scenario_b);
  report("dies mid-burst", b, baseline.makespan);

  std::printf("\nscenario A: the victim is evicted after two collect "
              "timeouts; its share lands on the surviving SEDs.\n");
  std::printf("scenario B: jobs already queued on the victim hit the 16h "
              "deadline and are resubmitted; everything completes.\n");
  return 0;
}
