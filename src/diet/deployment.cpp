#include "diet/deployment.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "fault/injector.hpp"
#include "sched/policy.hpp"

namespace gc::diet {

Deployment::Deployment(net::Env& env, naming::Registry& registry,
                       ServiceTable& services, const DeploymentSpec& spec)
    : sed_uid_base_(spec.sed_uid_base) {
  Rng seeder(spec.seed);

  auto ma_policy = sched::make_policy(spec.policy);
  GC_CHECK_MSG(ma_policy != nullptr, "unknown policy: " + spec.policy);
  ma_ = std::make_unique<Agent>(Agent::Kind::kMaster, spec.ma_name,
                                std::move(ma_policy), spec.agent_tuning,
                                seeder.next_u64());
  if (spec.ma_uid != 0) {
    ma_->set_federation(spec.ma_uid, spec.request_key_base);
  }
  env.attach(*ma_, spec.ma_node);
  registry.rebind(spec.ma_name, ma_->endpoint());

  // SEDs first (so LAs can hand them a parent immediately after attach).
  seds_.reserve(spec.seds.size());
  for (std::size_t i = 0; i < spec.seds.size(); ++i) {
    const auto& sed_spec = spec.seds[i];
    SedTuning tuning = spec.sed_tuning;
    if (sed_spec.heartbeat_period >= 0.0) {
      tuning.heartbeat_period = sed_spec.heartbeat_period;
    }
    auto sed = std::make_unique<Sed>(
        /*uid=*/spec.sed_uid_base + i + 1, sed_spec.name, services,
        sed_spec.host_power, sed_spec.machines, std::move(tuning),
        seeder.next_u64());
    env.attach(*sed, sed_spec.node);
    registry.rebind(sed_spec.name, sed->endpoint());
    seds_.push_back(std::move(sed));
  }

  las_.reserve(spec.las.size());
  for (const auto& la_spec : spec.las) {
    auto la_policy = sched::make_policy(spec.policy);
    auto la = std::make_unique<Agent>(Agent::Kind::kLocal, la_spec.name,
                                      std::move(la_policy), spec.agent_tuning,
                                      seeder.next_u64());
    env.attach(*la, la_spec.node);
    registry.rebind(la_spec.name, la->endpoint());
    la->register_at(ma_->endpoint());
    for (const int sed_index : la_spec.sed_indexes) {
      GC_CHECK(sed_index >= 0 &&
               static_cast<std::size_t>(sed_index) < seds_.size());
      seds_[static_cast<std::size_t>(sed_index)]->register_at(la->endpoint());
    }
    las_.push_back(std::move(la));
  }
}

Sed* Deployment::sed_by_uid(std::uint64_t uid) {
  if (uid <= sed_uid_base_ || uid > sed_uid_base_ + seds_.size()) {
    return nullptr;
  }
  return seds_[uid - sed_uid_base_ - 1].get();
}

Federation::Federation(net::Env& env, naming::Registry& registry,
                       ServiceTable& services,
                       std::vector<DeploymentSpec> shards) {
  // The replicated table vector must be fully built BEFORE `shards` is
  // moved into init's parameter: as sibling arguments the two would be
  // indeterminately sequenced and the size read could see an empty,
  // already-moved-from vector.
  std::vector<ServiceTable*> tables(shards.size(), &services);
  init(env, registry, std::move(tables), std::move(shards));
}

Federation::Federation(net::Env& env, naming::Registry& registry,
                       std::vector<ServiceTable*> services,
                       std::vector<DeploymentSpec> shards) {
  init(env, registry, std::move(services), std::move(shards));
}

void Federation::init(net::Env& env, naming::Registry& registry,
                      std::vector<ServiceTable*> services,
                      std::vector<DeploymentSpec> shards) {
  GC_CHECK_MSG(!shards.empty(), "a federation needs at least one shard");
  GC_CHECK_MSG(services.size() == shards.size(),
               "one service table per shard");
  env_ = &env;
  // Assign the disjoint id spaces: SED uids are dense across shards (so a
  // federation-wide SED index maps to a uid exactly like a single
  // deployment's), MA uids count from 1, request keys get the uid in the
  // top bits so no two shards can mint the same key.
  std::uint64_t uid_base = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    shards[i].sed_uid_base = uid_base;
    uid_base += shards[i].seds.size();
    shards[i].ma_uid = static_cast<std::uint32_t>(i + 1);
    shards[i].request_key_base = static_cast<std::uint64_t>(i + 1) << 48;
  }
  shards_.reserve(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    shards_.push_back(
        std::make_unique<Deployment>(env, registry, *services[i], shards[i]));
  }
  // Full mesh: every MA learns every other MA. connect order is spec
  // order, so peer fan-out order is deterministic.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    for (std::size_t j = 0; j < shards_.size(); ++j) {
      if (i == j) continue;
      shards_[i]->ma().connect_peer(shards_[j]->ma().endpoint());
    }
  }
}

std::size_t Federation::sed_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) n += shard->sed_count();
  return n;
}

Sed& Federation::sed(std::size_t i) {
  for (auto& shard : shards_) {
    if (i < shard->sed_count()) return shard->sed(i);
    i -= shard->sed_count();
  }
  GC_CHECK_MSG(false, "federation SED index out of range");
  return shards_.front()->sed(0);  // unreachable
}

std::size_t Federation::la_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) n += shard->la_count();
  return n;
}

Agent& Federation::la(std::size_t i) {
  for (auto& shard : shards_) {
    if (i < shard->la_count()) return shard->la(i);
    i -= shard->la_count();
  }
  GC_CHECK_MSG(false, "federation LA index out of range");
  return shards_.front()->la(0);  // unreachable
}

Sed* Federation::sed_by_uid(std::uint64_t uid) {
  for (auto& shard : shards_) {
    if (Sed* sed = shard->sed_by_uid(uid)) return sed;
  }
  return nullptr;
}

void Federation::arm_faults(const std::vector<fault::ProcessFault>& faults,
                            fault::Injector* injector) {
  using Kind = fault::ProcessFault::Kind;
  for (const fault::ProcessFault& f : faults) {
    const auto index = static_cast<std::size_t>(f.index);
    const bool on_la = f.kind == Kind::kLaDeath;
    GC_CHECK_MSG(f.index >= 0 && index < (on_la ? la_count() : sed_count()),
                 "process fault index out of range");
    GC_CHECK_MSG(injector != nullptr ||
                     (f.kind != Kind::kSedIsolate && f.kind != Kind::kSedHeal),
                 "isolate/heal faults need an injector");
    const double delay = std::max(0.0, f.at_s - env_->now());
    env_->post_after(delay, [this, injector, kind = f.kind, index]() {
      switch (kind) {
        case Kind::kSedCrash:
          GC_WARN << "fault: crashing " << sed(index).name();
          sed(index).fail();
          break;
        case Kind::kSedRestart:
          GC_WARN << "fault: restarting " << sed(index).name();
          sed(index).restart();
          break;
        case Kind::kLaDeath:
          GC_WARN << "fault: killing " << la(index).name();
          la(index).fail();
          break;
        case Kind::kSedIsolate:
          GC_WARN << "fault: isolating " << sed(index).name();
          injector->isolate(sed(index).node());
          break;
        case Kind::kSedHeal:
          GC_WARN << "fault: healing " << sed(index).name();
          injector->heal(sed(index).node());
          break;
      }
    });
  }
}

}  // namespace gc::diet
