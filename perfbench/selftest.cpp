// The benchmark's own tests: its input generators are pure functions of the
// seed, and its correctness gates reject a perturbed outcome.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <vector>

#include "harness.hpp"
#include "loadgen/loadgen.hpp"
#include "rounds.hpp"
#include "tracing.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

bool same_plan(const std::vector<gc::loadgen::Arrival>& a,
               const std::vector<gc::loadgen::Arrival>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].client != b[i].client || a[i].seq != b[i].seq ||
        a[i].at_s != b[i].at_s || a[i].profile != b[i].profile) {
      return false;
    }
  }
  return true;
}

std::vector<gc::loadgen::Arrival> serving_plan(std::uint64_t seed) {
  return gc::loadgen::plan_arrivals(perfbench::serving_config(seed).load, 3.0);
}

void generators_are_pure_functions_of_the_seed() {
  check(same_plan(serving_plan(42), serving_plan(42)),
        "serving plan: same seed, same arrivals");
  check(!same_plan(serving_plan(42), serving_plan(43)),
        "serving plan: another seed, other arrivals");
  check(serving_plan(7).size() == 200, "serving plan: 200 calls per round");

  // campaign_real and the paper campaign take fixed requests; their seed is
  // only the DES tie-break seed, and the gates below pin their outcome.
}

void gates_reject_perturbed_outcomes() {
  const perfbench::PaperOutcome pinned = perfbench::pinned_paper_outcome();
  check(perfbench::paper_gate(pinned).ok, "paper gate: pinned outcome passes");

  perfbench::PaperOutcome bad = pinned;
  bad.science_digest ^= 1;
  check(!perfbench::paper_gate(bad).ok, "paper gate: one digest bit fails");
  bad = pinned;
  bad.makespan_s = std::nextafter(bad.makespan_s, 0.0);
  check(!perfbench::paper_gate(bad).ok, "paper gate: one-ulp makespan fails");
  bad = pinned;
  bad.finding_mean_s = std::nextafter(bad.finding_mean_s, 1.0);
  check(!perfbench::paper_gate(bad).ok, "paper gate: one-ulp finding fails");
  bad = pinned;
  bad.flows += 1;
  check(!perfbench::paper_gate(bad).ok, "paper gate: one extra flow fails");

  perfbench::PaperOutcome reference = pinned;
  check(perfbench::outcome_gate("x", pinned, reference).ok,
        "outcome gate: equal outcomes pass");
  reference.science_digest ^= 1ULL << 40;
  check(!perfbench::outcome_gate("x", pinned, reference).ok,
        "outcome gate: one reference digest bit fails");

  const perfbench::ServingOutcome serving{0x0123456789abcdefULL,
                                          0xfedcba9876543210ULL, 200};
  check(perfbench::serving_gate(serving, serving).ok,
        "serving gate: equal outcomes pass");
  perfbench::ServingOutcome off = serving;
  off.science_digest ^= 1;
  check(!perfbench::serving_gate(off, serving).ok,
        "serving gate: one science digest bit fails");
  off = serving;
  off.state_hash ^= 1ULL << 63;
  check(!perfbench::serving_gate(off, serving).ok,
        "serving gate: one state hash bit fails");
  off = serving;
  off.calls -= 1;
  check(!perfbench::serving_gate(off, serving).ok,
        "serving gate: one missing call fails");

  std::vector<perfbench::RoundCore> rounds(3);
  for (perfbench::RoundCore& r : rounds) {
    r.science_digest = serving.science_digest;
    r.state_hash = serving.state_hash;
  }
  const auto agree = [&rounds]() {
    std::vector<const perfbench::RoundCore*> cores;
    for (const perfbench::RoundCore& r : rounds) cores.push_back(&r);
    return perfbench::rounds_agree_gate("x", cores).ok;
  };
  check(agree(), "round gate: identical rounds pass");
  rounds[2].science_digest ^= 1;
  check(!agree(), "round gate: one digest bit in the last round fails");
  rounds[2].science_digest ^= 1;
  rounds[1].state_hash ^= 1ULL << 31;
  check(!agree(), "round gate: one state hash bit in a middle round fails");
  check(!perfbench::rounds_agree_gate("x", {}).ok, "round gate: no rounds fail");

  const std::uint64_t hash = perfbench::pinned_real_catalog_hash();
  check(perfbench::catalog_gate(hash).ok, "catalog gate: pinned hash passes");
  check(!perfbench::catalog_gate(hash ^ (1ULL << 63)).ok,
        "catalog gate: one hash bit fails");

  perfbench::Result result;
  result.attempted = 10;
  check(result.correct(), "result: no failures, no gates -> correct");
  result.failed = 1;
  check(!result.correct(), "result: a failed call -> incorrect");
  result.failed = 0;
  result.gate("x", false, "");
  check(!result.correct(), "result: a failed gate -> incorrect");
}

void statistics_and_seams() {
  check(perfbench::tail_quantile(2000) == 0.99, "tail: p99 at 2000 samples");
  check(perfbench::tail_quantile(200) == 0.95, "tail: p95 at 200 samples");
  check(perfbench::tail_quantile(100) == 0.90, "tail: p90 at 100 samples");
  check(perfbench::tail_quantile(12) == 1.0, "tail: max below 20 samples");
  check(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "median of three");
  check(perfbench::quantile({1.0, 2.0, 3.0, 4.0}, 0.5) == 2.5,
        "quantile interpolates");

  perfbench::CensusHook hook;
  gc::net::Envelope envelope;
  envelope.type = 11;
  envelope.payload.resize(8);
  const gc::net::FaultDecision decision = hook.on_message(0.0, 1, 2, envelope, 1);
  check(!decision.tampered(), "census hook never tampers");
  check(hook.messages() == 1 && hook.of_type(11) == 1 && hook.bytes() == 40,
        "census hook counts messages, types and wire bytes");
}

}  // namespace

int main() {
  generators_are_pure_functions_of_the_seed();
  gates_reject_perturbed_outcomes();
  statistics_and_seams();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
