// Deployment: instantiates and wires an MA / LA / SED hierarchy on an Env.
//
// This is the programmatic equivalent of the GoDIET-style deployment the
// paper's experiment used (Section 5.1): one MA, one LA per cluster, SEDs
// under their LA. All components share one ServiceTable here (every SED of
// the experiment offered the same two services).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "diet/agent.hpp"
#include "diet/client.hpp"
#include "diet/sed.hpp"
#include "fault/plan.hpp"
#include "naming/registry.hpp"
#include "net/env.hpp"

namespace gc::fault {
class Injector;
}  // namespace gc::fault

namespace gc::diet {

struct DeploymentSpec {
  struct SedSpec {
    std::string name;
    net::NodeId node = 0;
    double host_power = 1.0;
    int machines = 1;
    /// Overrides sed_tuning.heartbeat_period for this SED when >= 0.
    /// Staggering the periods keeps sibling beacons from landing on the
    /// parent at identical timestamps — the model checker uses this to
    /// avoid state-space blow-up from equivalent beacon orderings.
    double heartbeat_period = -1.0;
  };
  struct LaSpec {
    std::string name;
    net::NodeId node = 0;
    std::vector<int> sed_indexes;  ///< indexes into `seds`
  };

  std::string ma_name = "MA1";
  net::NodeId ma_node = 0;
  std::string policy = "default";
  AgentTuning agent_tuning;
  SedTuning sed_tuning;
  std::vector<LaSpec> las;
  std::vector<SedSpec> seds;
  std::uint64_t seed = 42;

  // --- federation (all defaults preserve the single-hierarchy behavior) ---
  /// SED uids are assigned sed_uid_base + 1 .. sed_uid_base + N in spec
  /// order. Shards of a federation need disjoint ranges: uids key the MA's
  /// outstanding bookkeeping, the replica catalogs, and SED dedup journals
  /// federation-wide.
  std::uint64_t sed_uid_base = 0;
  /// Nonzero makes the MA federation-capable (Agent::set_federation);
  /// each shard of a federation needs a distinct uid.
  std::uint32_t ma_uid = 0;
  /// Request keys this MA mints start here; shards need disjoint ranges
  /// because forwarded collects keep their key across the federation.
  std::uint64_t request_key_base = 0;
};

class Deployment {
 public:
  /// Creates and attaches all actors and fires the registration messages.
  /// Run the engine briefly (e.g. run_until(now + 1.0)) before submitting
  /// requests so registration settles.
  Deployment(net::Env& env, naming::Registry& registry,
             ServiceTable& services, const DeploymentSpec& spec);

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  [[nodiscard]] Agent& ma() { return *ma_; }
  [[nodiscard]] std::size_t la_count() const { return las_.size(); }
  [[nodiscard]] Agent& la(std::size_t i) { return *las_.at(i); }
  [[nodiscard]] std::size_t sed_count() const { return seds_.size(); }
  [[nodiscard]] Sed& sed(std::size_t i) { return *seds_.at(i); }

  /// Finds a SED by uid (uids are assigned base+1..base+N in spec order).
  [[nodiscard]] Sed* sed_by_uid(std::uint64_t uid);

 private:
  std::unique_ptr<Agent> ma_;
  std::vector<std::unique_ptr<Agent>> las_;
  std::vector<std::unique_ptr<Sed>> seds_;
  std::uint64_t sed_uid_base_ = 0;
};

/// A federation of MA hierarchies on one Env: N shards, each its own
/// Deployment, with every MA pair cross-connected as peers. Shard uid
/// ranges (SED uids, MA uids, request-key bases) are assigned here so
/// callers only write per-shard specs; actor names must still be unique
/// across the whole federation (the shared Registry is flat). The paper's
/// single hierarchy is a federation of one shard.
class Federation {
 public:
  Federation(net::Env& env, naming::Registry& registry,
             ServiceTable& services, std::vector<DeploymentSpec> shards);
  /// Per-shard service tables (services[i] backs shards[i]); this is how a
  /// federation models sites that offer different service sets, so a
  /// request only a remote shard can serve exercises the peer forwarding
  /// path. Tables must outlive the federation.
  Federation(net::Env& env, naming::Registry& registry,
             std::vector<ServiceTable*> services,
             std::vector<DeploymentSpec> shards);

  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] Deployment& shard(std::size_t i) { return *shards_.at(i); }
  [[nodiscard]] Agent& ma(std::size_t i) { return shards_.at(i)->ma(); }

  /// Federation-wide flat views (shard-major order), so fault-plan
  /// schedules and reports can index SEDs/LAs exactly like a single
  /// Deployment's.
  [[nodiscard]] std::size_t sed_count() const;
  [[nodiscard]] Sed& sed(std::size_t i);
  [[nodiscard]] std::size_t la_count() const;
  [[nodiscard]] Agent& la(std::size_t i);
  [[nodiscard]] Sed* sed_by_uid(std::uint64_t uid);

  /// Arms a process-fault schedule on the flat SED/LA indexes, one env
  /// timer per fault in vector order, each firing at its `at_s` (or now,
  /// if that has passed). Crashes, restarts and LA deaths act on the
  /// actors; isolate/heal cut the SED's node through `injector`, which
  /// must then be non-null. The federation and injector must outlive the
  /// timers.
  void arm_faults(const std::vector<fault::ProcessFault>& faults,
                  fault::Injector* injector);

 private:
  /// Shared constructor body (a delegating constructor would leave the
  /// single-table overload's `shards.size()` read unsequenced against
  /// moving `shards` into the delegate's parameter).
  void init(net::Env& env, naming::Registry& registry,
            std::vector<ServiceTable*> services,
            std::vector<DeploymentSpec> shards);

  net::Env* env_ = nullptr;
  std::vector<std::unique_ptr<Deployment>> shards_;
};

}  // namespace gc::diet
