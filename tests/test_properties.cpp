// Property-based sweeps across the stack: seeded TEST_P suites asserting
// invariants that must hold for ANY seed, not just the calibrated one.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.hpp"
#include "diet/profile.hpp"
#include "halo/halomaker.hpp"
#include "ramses/loader.hpp"
#include "ramses/pm.hpp"
#include "workflow/campaign.hpp"

namespace gc {
namespace {

class Seeded : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, Seeded,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------- profile serialization ----------

diet::Profile random_profile(Rng& rng) {
  const int last_out = static_cast<int>(rng.uniform_u64(6));
  const int last_inout = static_cast<int>(rng.uniform_u64(
                             static_cast<std::uint64_t>(last_out) + 2)) -
                         1;
  const int last_in =
      last_inout >= 0
          ? static_cast<int>(rng.uniform_u64(
                static_cast<std::uint64_t>(last_inout) + 2)) -
                1
          : -1;
  diet::Profile profile("svc" + std::to_string(rng.uniform_u64(3)),
                        std::min(last_in, last_inout),
                        std::min(last_inout, last_out), last_out);
  for (int i = 0; i <= profile.last_inout(); ++i) {
    switch (rng.uniform_u64(4)) {
      case 0:
        profile.arg(i).set_scalar<std::int32_t>(
            static_cast<std::int32_t>(rng.next_u64()), diet::BaseType::kInt,
            diet::Persistence::kVolatile);
        break;
      case 1: {
        std::vector<double> values(rng.uniform_u64(16));
        for (auto& v : values) v = rng.normal();
        profile.arg(i).set_vector<double>(values, diet::BaseType::kDouble,
                                          diet::Persistence::kPersistent);
        break;
      }
      case 2:
        profile.arg(i).set_string(std::string(rng.uniform_u64(32), 'x'),
                                  diet::Persistence::kVolatile);
        break;
      default:
        profile.arg(i).set_file("/f" + std::to_string(rng.uniform_u64(100)),
                                diet::Persistence::kVolatile,
                                static_cast<std::int64_t>(
                                    rng.uniform_u64(1 << 20)));
        break;
    }
  }
  return profile;
}

TEST_P(Seeded, ProfileInputsRoundtripAnyShape) {
  Rng rng(GetParam() * 31337);
  for (int round = 0; round < 50; ++round) {
    const diet::Profile original = random_profile(rng);
    net::Writer writer;
    original.serialize_inputs(writer);
    net::Reader reader(writer.data());
    const diet::Profile back =
        diet::Profile::deserialize_inputs(
            original.desc(), original.last_in(), original.last_inout(),
            original.last_out(), reader)
            .value();
    ASSERT_TRUE(reader.done());
    ASSERT_EQ(back.arg_count(), original.arg_count());
    for (int i = 0; i <= original.last_inout(); ++i) {
      ASSERT_EQ(back.arg(i).has_value(), original.arg(i).has_value());
      ASSERT_EQ(back.arg(i).raw(), original.arg(i).raw());
      ASSERT_EQ(back.arg(i).file_path(), original.arg(i).file_path());
      ASSERT_EQ(back.arg(i).modeled_bytes(), original.arg(i).modeled_bytes());
    }
    ASSERT_EQ(back.in_bytes(), original.in_bytes());
  }
}

// ---------- FoF ----------

TEST_P(Seeded, FofPartitionsAllParticles) {
  // Groups + isolated particles: every particle lands in exactly one
  // group; halos' member lists are disjoint.
  Rng rng(GetParam() * 101);
  std::vector<double> x, y, z, v(0), mass;
  std::vector<std::uint64_t> id;
  const int blobs = 3 + static_cast<int>(rng.uniform_u64(4));
  for (int b = 0; b < blobs; ++b) {
    const double cx = rng.uniform();
    const double cy = rng.uniform();
    const double cz = rng.uniform();
    const int count = 30 + static_cast<int>(rng.uniform_u64(60));
    for (int i = 0; i < count; ++i) {
      auto wrap = [](double w) { return w - std::floor(w); };
      x.push_back(wrap(cx + rng.normal(0, 0.004)));
      y.push_back(wrap(cy + rng.normal(0, 0.004)));
      z.push_back(wrap(cz + rng.normal(0, 0.004)));
      mass.push_back(1e-4);
      id.push_back(id.size() + 1);
    }
  }
  for (int i = 0; i < 500; ++i) {
    x.push_back(rng.uniform());
    y.push_back(rng.uniform());
    z.push_back(rng.uniform());
    mass.push_back(1e-4);
    id.push_back(id.size() + 1);
  }
  std::vector<double> zero(x.size(), 0.0);
  halo::ParticleView view{&x, &y, &z, &zero, &zero, &zero, &mass, &id};
  const halo::HaloCatalog catalog =
      halo::find_halos(view, 1.0, 100.0, halo::FofOptions{0.1, 20});

  std::set<std::uint64_t> seen;
  for (const auto& h : catalog.halos) {
    EXPECT_GE(h.npart, 20u);
    for (const std::uint64_t pid : h.members) {
      EXPECT_TRUE(seen.insert(pid).second) << "particle in two halos";
    }
    EXPECT_GE(h.x, 0.0);
    EXPECT_LT(h.x, 1.0);
    EXPECT_GT(h.mass, 0.0);
  }
  EXPECT_LE(seen.size(), x.size());
}

// ---------- PM dynamics ----------

TEST_P(Seeded, LeapfrogConservesMassAndWrapsPositions) {
  Rng rng(GetParam() * 7);
  cosmo::Cosmology cosmology{cosmo::Params{}};
  ramses::PmSolver solver(cosmology, {16, 0.27});
  ramses::ParticleSet particles;
  const int n = 6;
  for (int i = 0; i < n * n * n; ++i) {
    particles.push_back(rng.uniform(), rng.uniform(), rng.uniform(),
                        rng.normal(0, 1e-3), rng.normal(0, 1e-3),
                        rng.normal(0, 1e-3), 1.0 / (n * n * n),
                        static_cast<std::uint64_t>(i + 1), 0);
  }
  const double mass0 = particles.total_mass();
  double a = 0.2;
  ramses::Forces forces;
  for (int s = 0; s < 10; ++s) {
    solver.step(particles, a, 0.05, forces);
    a += 0.05;
    ASSERT_TRUE(particles.valid());
  }
  EXPECT_DOUBLE_EQ(particles.total_mass(), mass0);
}

// ---------- campaign invariants for any seed ----------

TEST_P(Seeded, CampaignInvariants) {
  workflow::CampaignConfig config;
  config.sub_simulations = 22;
  config.seed = GetParam();
  const workflow::CampaignResult result =
      workflow::run_grid5000_campaign(config);

  EXPECT_EQ(result.failed_calls, 0u);
  ASSERT_EQ(result.zoom2.size(), 22u);

  // Every record is fully populated and causally ordered.
  for (const auto& record : result.zoom2) {
    EXPECT_TRUE(record.ok);
    EXPECT_GE(record.found, record.submitted);
    EXPECT_GE(record.started, record.found);
    EXPECT_GE(record.completed, record.started);
    EXPECT_FALSE(record.sed_name.empty());
  }

  // Assignments sum to the request count; distribution even (2 each).
  std::uint64_t assigned = 0;
  for (const auto& sed : result.seds) {
    assigned += sed.requests;
    EXPECT_EQ(sed.requests, 2u);
  }
  EXPECT_EQ(assigned, 22u);

  // Makespan bounded below by the best possible and above by sequential.
  EXPECT_GT(result.makespan, result.part1_duration);
  EXPECT_LT(result.makespan, result.sequential_estimate);

  // Finding time stays in the calibrated regime for any seed.
  EXPECT_GT(result.finding_mean, 0.040);
  EXPECT_LT(result.finding_mean, 0.060);
}

// ---------- contention flow model: tie-seed bit-identity ----------

TEST_P(Seeded, ContentionCampaignIsTieSeedInvariant) {
  auto run = [&](std::uint64_t tie_seed) {
    workflow::CampaignConfig config;
    config.sub_simulations = 12;
    config.contention = true;
    config.wan_bandwidth_scale = 0.05;  // force real congestion
    config.shipped_input_bytes = 64 << 20;
    config.input_mode = diet::Persistence::kPersistent;
    config.policy = "mct-data";
    config.tie_break_seed = tie_seed;
    return workflow::run_grid5000_campaign(config);
  };
  const workflow::CampaignResult baseline = run(0);
  const workflow::CampaignResult seeded = run(GetParam());
  EXPECT_GT(baseline.flows_completed, 0u);
  // Flow scheduling is deterministic: scrambling same-timestamp event
  // order must leave every outcome bit-identical.
  EXPECT_EQ(baseline.makespan, seeded.makespan);
  EXPECT_EQ(baseline.science_digest, seeded.science_digest);
  EXPECT_EQ(baseline.flows_completed, seeded.flows_completed);
  EXPECT_EQ(baseline.network_bytes, seeded.network_bytes);
  ASSERT_EQ(baseline.zoom2.size(), seeded.zoom2.size());
  for (std::size_t i = 0; i < baseline.zoom2.size(); ++i) {
    EXPECT_EQ(baseline.zoom2[i].completed, seeded.zoom2[i].completed);
  }
}

}  // namespace
}  // namespace gc
