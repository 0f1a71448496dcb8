// Tests for estimation vectors and scheduling policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <string>

#include "common/rng.hpp"
#include "sched/estimation.hpp"
#include "sched/policy.hpp"

namespace gc::sched {
namespace {

Candidate make_candidate(std::uint64_t uid, double power, double queue,
                         double assigned, double comp = -1.0) {
  Candidate c;
  c.sed_uid = uid;
  c.sed_endpoint = static_cast<net::Endpoint>(uid + 100);
  c.sed_name = "SeD-" + std::to_string(uid);
  c.est.host_power = power;
  c.est.queue_length = queue;
  c.est.agent_assigned = assigned;
  c.est.service_comp_s = comp;
  return c;
}

TEST(Estimation, SerializeRoundtrip) {
  Estimation est;
  est.timestamp = 12.5;
  est.host_power = 1.43;
  est.machines = 16;
  est.queue_length = 3;
  est.queued_work_s = 15000.0;
  est.free_cpu = 0.15;
  est.free_mem_mb = 1024.0;
  est.service_comp_s = 4190.0;
  est.jobs_completed = 9;
  est.agent_assigned = 2;

  net::Writer writer;
  est.serialize(writer);
  net::Reader reader(writer.data());
  const Estimation back = Estimation::deserialize(reader);
  EXPECT_TRUE(reader.done());
  EXPECT_DOUBLE_EQ(back.timestamp, est.timestamp);
  EXPECT_DOUBLE_EQ(back.host_power, est.host_power);
  EXPECT_EQ(back.machines, est.machines);
  EXPECT_DOUBLE_EQ(back.queued_work_s, est.queued_work_s);
  EXPECT_DOUBLE_EQ(back.service_comp_s, est.service_comp_s);
  EXPECT_EQ(back.jobs_completed, est.jobs_completed);
  EXPECT_DOUBLE_EQ(back.agent_assigned, est.agent_assigned);
}

TEST(Estimation, CandidateListRoundtrip) {
  std::vector<Candidate> candidates;
  for (int i = 0; i < 5; ++i) {
    candidates.push_back(make_candidate(static_cast<std::uint64_t>(i),
                                        1.0 + i, i, 0.0));
  }
  net::Writer writer;
  serialize_candidates(writer, candidates);
  net::Reader reader(writer.data());
  const auto back = deserialize_candidates(reader);
  ASSERT_EQ(back.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(back[static_cast<size_t>(i)].sed_uid,
              static_cast<std::uint64_t>(i));
    EXPECT_EQ(back[static_cast<size_t>(i)].sed_name,
              "SeD-" + std::to_string(i));
  }
}

TEST(Policy, RegistryKnowsAllNames) {
  for (const auto& name : policy_names()) {
    EXPECT_NE(make_policy(name), nullptr) << name;
  }
  EXPECT_EQ(make_policy("nonsense"), nullptr);
}

TEST(Policy, DefaultPrefersLeastOutstanding) {
  auto policy = make_default_policy();
  Rng rng(1);
  std::vector<Candidate> candidates = {
      make_candidate(1, 1.0, 0.0, 5.0),
      make_candidate(2, 1.0, 0.0, 0.0),
      make_candidate(3, 1.0, 0.0, 2.0),
  };
  policy->rank(candidates, RequestContext{}, rng);
  EXPECT_EQ(candidates[0].sed_uid, 2u);
  EXPECT_EQ(candidates[1].sed_uid, 3u);
  EXPECT_EQ(candidates[2].sed_uid, 1u);
}

TEST(Policy, DefaultUsesMaxOfQueueAndAssigned) {
  auto policy = make_default_policy();
  Rng rng(1);
  // uid 1: agent thinks 0 assigned but SED reports queue 4 (stale agent).
  std::vector<Candidate> candidates = {
      make_candidate(1, 1.0, 4.0, 0.0),
      make_candidate(2, 1.0, 0.0, 1.0),
  };
  policy->rank(candidates, RequestContext{}, rng);
  EXPECT_EQ(candidates[0].sed_uid, 2u);
}

TEST(Policy, DefaultIgnoresPower) {
  // The paper's point: the deployed default does NOT prefer fast machines.
  auto policy = make_default_policy();
  Rng rng(1);
  int fast_first = 0;
  for (int round = 0; round < 200; ++round) {
    std::vector<Candidate> candidates = {
        make_candidate(1, 1.43, 0.0, 0.0),  // fast
        make_candidate(2, 1.00, 0.0, 0.0),  // slow, same outstanding
    };
    policy->rank(candidates, RequestContext{}, rng);
    if (candidates[0].sed_uid == 1) ++fast_first;
  }
  // Ties break randomly: roughly half each, never all-fast.
  EXPECT_GT(fast_first, 60);
  EXPECT_LT(fast_first, 140);
}

TEST(Policy, DefaultSpreadsRoundOfAssignments) {
  // Simulate the MA loop: assign 100 requests, updating outstanding counts.
  auto policy = make_default_policy();
  Rng rng(3);
  std::vector<double> outstanding(11, 0.0);
  std::vector<int> assigned(11, 0);
  for (int r = 0; r < 100; ++r) {
    std::vector<Candidate> candidates;
    for (std::uint64_t uid = 0; uid < 11; ++uid) {
      candidates.push_back(make_candidate(
          uid, 1.0 + 0.05 * static_cast<double>(uid), 0.0,
          outstanding[uid]));
    }
    policy->rank(candidates, RequestContext{}, rng);
    const std::uint64_t chosen = candidates[0].sed_uid;
    outstanding[chosen] += 1.0;
    assigned[chosen] += 1;
  }
  // 100 over 11: every SED got 9 requests, one got 10 (Figure 4 left).
  int nines = 0;
  int tens = 0;
  for (const int count : assigned) {
    if (count == 9) ++nines;
    if (count == 10) ++tens;
  }
  EXPECT_EQ(nines, 10);
  EXPECT_EQ(tens, 1);
}

TEST(Policy, MctPrefersFasterWhenIdle) {
  auto policy = make_mct_policy();
  Rng rng(1);
  std::vector<Candidate> candidates = {
      make_candidate(1, 1.00, 0.0, 0.0, 5990.0),
      make_candidate(2, 1.43, 0.0, 0.0, 4189.0),
  };
  policy->rank(candidates, RequestContext{}, rng);
  EXPECT_EQ(candidates[0].sed_uid, 2u);
}

TEST(Policy, MctBalancesBacklogAgainstSpeed) {
  auto policy = make_mct_policy();
  Rng rng(1);
  // Fast SED has 2 outstanding jobs of 4189s (completion = 3*4189 = 12567);
  // slow idle SED completes in 5990 -> slow wins.
  Candidate fast = make_candidate(1, 1.43, 2.0, 2.0, 4189.0);
  fast.est.queued_work_s = 2.0 * 4189.0;
  Candidate slow = make_candidate(2, 1.00, 0.0, 0.0, 5990.0);
  std::vector<Candidate> candidates = {fast, slow};
  policy->rank(candidates, RequestContext{}, rng);
  EXPECT_EQ(candidates[0].sed_uid, 2u);
}

TEST(Policy, MctFallsBackWithoutPluginEstimate) {
  auto policy = make_mct_policy();
  Rng rng(1);
  std::vector<Candidate> candidates = {
      make_candidate(1, 1.00, 0.0, 0.0, -1.0),
      make_candidate(2, 2.00, 0.0, 0.0, -1.0),
  };
  policy->rank(candidates, RequestContext{}, rng);
  EXPECT_EQ(candidates[0].sed_uid, 2u);  // power-only fallback
}

TEST(Policy, FastestSortsByPower) {
  auto policy = make_fastest_policy();
  Rng rng(1);
  std::vector<Candidate> candidates = {
      make_candidate(1, 1.0, 0.0, 0.0),
      make_candidate(2, 1.43, 9.0, 9.0),  // busy but fast: still first
      make_candidate(3, 1.2, 0.0, 0.0),
  };
  policy->rank(candidates, RequestContext{}, rng);
  EXPECT_EQ(candidates[0].sed_uid, 2u);
  EXPECT_EQ(candidates[1].sed_uid, 3u);
  EXPECT_EQ(candidates[2].sed_uid, 1u);
}

TEST(Policy, RandomIsUniformish) {
  auto policy = make_random_policy();
  Rng rng(9);
  std::vector<int> first_count(4, 0);
  for (int round = 0; round < 400; ++round) {
    std::vector<Candidate> candidates;
    for (std::uint64_t uid = 0; uid < 4; ++uid) {
      candidates.push_back(make_candidate(uid, 1.0, 0.0, 0.0));
    }
    policy->rank(candidates, RequestContext{}, rng);
    first_count[candidates[0].sed_uid] += 1;
  }
  for (const int count : first_count) {
    EXPECT_GT(count, 60);
    EXPECT_LT(count, 140);
  }
}

TEST(Policy, EmptyCandidateListIsFine) {
  Rng rng(1);
  for (const auto& name : policy_names()) {
    auto policy = make_policy(name);
    std::vector<Candidate> empty;
    policy->rank(empty, RequestContext{}, rng);
    EXPECT_TRUE(empty.empty());
  }
}

TEST(Policy, SingleCandidateUntouched) {
  Rng rng(1);
  for (const auto& name : policy_names()) {
    auto policy = make_policy(name);
    std::vector<Candidate> one = {make_candidate(7, 1.0, 0.0, 0.0)};
    policy->rank(one, RequestContext{}, rng);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].sed_uid, 7u);
  }
}

// --- Differential oracle for the key-sorted ranking ----------------------
// The policies sort (key, index) pairs and move each Candidate once. The
// oracle below is the whole-Candidate std::stable_sort / std::sort they
// replaced, with the key formulas copied from policy.cpp; both must
// produce the identical order and leave the Rng in the identical state.

double oracle_outstanding(const Candidate& c) {
  return std::max(c.est.agent_assigned, c.est.queue_length);
}

double oracle_completion(const Candidate& c) {
  double per_job = c.est.service_comp_s;
  if (per_job < 0.0) {
    per_job = c.est.queue_length > 0.0
                  ? c.est.queued_work_s / c.est.queue_length
                  : 1.0 / std::max(c.est.host_power, 1e-9);
  }
  return std::max(c.est.queued_work_s, oracle_outstanding(c) * per_job) +
         per_job;
}

double oracle_data_completion(const Candidate& c) {
  double xfer = c.est.data_xfer_s;
  if (xfer <= 0.0 && c.est.data_bytes_to_move > 0.0) {
    xfer = c.est.data_bytes_to_move / (1e9 / 8.0);
  }
  return oracle_completion(c) + xfer;
}

void oracle_rank(const std::string& policy, std::vector<Candidate>& c,
                 Rng& rng) {
  const auto by = [&c](auto key) {
    std::stable_sort(c.begin(), c.end(),
                     [key](const Candidate& a, const Candidate& b) {
                       return key(a) < key(b);
                     });
  };
  if (policy == "default") {
    for (std::size_t i = c.size(); i > 1; --i) {
      std::swap(c[i - 1], c[rng.uniform_u64(i)]);
    }
    by(oracle_outstanding);
  } else if (policy == "mct") {
    by(oracle_completion);
  } else if (policy == "mct-data") {
    by(oracle_data_completion);
  } else if (policy == "fastest") {
    std::stable_sort(c.begin(), c.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.est.host_power > b.est.host_power;
                     });
  }
}

/// Unique uids in random order; every estimation field drawn from a tiny
/// value set so most keys collide and the tie order decides the result.
std::vector<Candidate> random_candidates(std::size_t n, Rng& gen) {
  std::vector<std::uint64_t> uids(n);
  for (std::size_t i = 0; i < n; ++i) uids[i] = 1000 + 7 * i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(uids[i - 1], uids[gen.uniform_u64(i)]);
  }
  std::vector<Candidate> out;
  for (const std::uint64_t uid : uids) {
    const auto pick = [&gen](std::initializer_list<double> values) {
      return *(values.begin() + gen.uniform_u64(values.size()));
    };
    Candidate c = make_candidate(uid, pick({1.0, 2.0}), pick({0.0, 1.0, 2.0}),
                                 pick({0.0, 1.0, 2.0}),
                                 pick({-1.0, 5.0, 10.0}));
    c.est.queued_work_s = pick({0.0, 10.0, 20.0});
    c.est.data_xfer_s = pick({0.0, 0.0, 1.0});
    c.est.data_bytes_to_move = pick({0.0, 1.25e8});
    out.push_back(std::move(c));
  }
  return out;
}

void expect_same_order(const std::vector<Candidate>& got,
                       const std::vector<Candidate>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].sed_uid, want[i].sed_uid) << what << " at " << i;
    ASSERT_EQ(got[i].sed_name, want[i].sed_name) << what << " at " << i;
    ASSERT_EQ(got[i].sed_endpoint, want[i].sed_endpoint) << what;
    const Estimation& a = got[i].est;
    const Estimation& b = want[i].est;
    ASSERT_TRUE(a.host_power == b.host_power &&
                a.queue_length == b.queue_length &&
                a.queued_work_s == b.queued_work_s &&
                a.service_comp_s == b.service_comp_s &&
                a.agent_assigned == b.agent_assigned &&
                a.data_bytes_to_move == b.data_bytes_to_move &&
                a.data_xfer_s == b.data_xfer_s)
        << what << " at " << i;
  }
}

TEST(PolicyOracle, KeySortedRankMatchesWholeCandidateStableSort) {
  Rng gen(2024);
  for (const std::string name : {"default", "mct", "mct-data", "fastest"}) {
    auto policy = make_policy(name);
    for (const std::size_t n : {0u, 1u, 2u, 16u, 1024u}) {
      for (int trial = 0; trial < 8; ++trial) {
        const std::vector<Candidate> input = random_candidates(n, gen);
        std::vector<Candidate> got = input;
        std::vector<Candidate> want = input;
        Rng rng_got(77 + static_cast<std::uint64_t>(trial));
        Rng rng_want = rng_got;
        policy->rank(got, RequestContext{}, rng_got);
        oracle_rank(name, want, rng_want);
        expect_same_order(got, want,
                          name + " n=" + std::to_string(n) + " trial " +
                              std::to_string(trial));
        for (int draw = 0; draw < 4; ++draw) {
          ASSERT_EQ(rng_got.next_u64(), rng_want.next_u64())
              << name << ": rank consumed a different Rng stream";
        }
      }
    }
  }
}

TEST(PolicyOracle, UidOrderMatchesWholeCandidateSort) {
  // Agent::finalize puts the collected candidates in uid order before
  // ranking; uids are unique, so std::sort has exactly one result.
  Rng gen(5);
  for (const std::size_t n : {0u, 1u, 2u, 16u, 1024u}) {
    const std::vector<Candidate> input = random_candidates(n, gen);
    std::vector<Candidate> got = input;
    std::vector<Candidate> want = input;
    order_by_key(got, [](const Candidate& c) { return c.sed_uid; });
    std::sort(want.begin(), want.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.sed_uid < b.sed_uid;
              });
    expect_same_order(got, want, "uid n=" + std::to_string(n));
  }
}

}  // namespace
}  // namespace gc::sched
