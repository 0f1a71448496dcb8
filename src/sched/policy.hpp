// Scheduling policies ("plug-in schedulers", paper ref [2]).
//
// A Policy ranks the candidate SEDs collected for one request, best first.
// Agents apply the policy at every level of the hierarchy: LAs pre-sort
// their subtree's candidates, the MA does the final merge-and-sort and
// picks the head of the list.
//
// Policies shipped:
//   - "default"  : what the deployed DIET of the paper did — spread the
//                  load by outstanding request count, ignoring machine
//                  power (this is exactly why Figure 4 right is uneven);
//   - "mct"      : Minimum Completion Time plug-in — uses the plugin-
//                  filled per-service compute estimate and the queued work
//                  to finish each job earliest (the paper's "better
//                  makespan could be attained" fix);
//   - "mct-data" : MCT plus the data-locality term the agents fill from
//                  the replica catalog (Estimation::data_bytes_to_move /
//                  data_xfer_s): a SED already holding the request's
//                  persistent inputs wins over an otherwise-equal one
//                  that would have to pull them across the WAN;
//   - "fastest"  : highest aggregate power first;
//   - "random"   : uniform random (baseline for ablations).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sched/estimation.hpp"

namespace gc::sched {

/// What the scheduler may know about the request being placed.
struct RequestContext {
  std::uint64_t request_id = 0;
  std::string service;
  std::int64_t in_bytes = 0;  ///< IN-data volume the client will push
};

class Policy {
 public:
  virtual ~Policy() = default;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Reorders candidates best-first. `rng` provides the tie-breaking /
  /// randomization source so runs are reproducible.
  virtual void rank(std::vector<Candidate>& candidates,
                    const RequestContext& request, Rng& rng) = 0;
};

/// Reorders candidates by ascending key(c), equal keys keeping their order
/// in `first` (a permutation of the indices applied beforehand; empty =
/// the current order). Without `first` this is the one result
/// std::stable_sort with key(a) < key(b) can produce. It sorts
/// (key, index) pairs and then moves each Candidate once, instead of
/// moving whole Candidates through the sort. Keys must be totally
/// ordered (no NaN).
template <typename KeyFn>
void order_by_key(std::vector<Candidate>& candidates, KeyFn key,
                  const std::vector<std::uint32_t>& first = {}) {
  const std::size_t n = candidates.size();
  if (n < 2) return;
  const auto source = [&first](std::uint32_t i) {
    return first.empty() ? i : first[i];
  };
  using Key = std::invoke_result_t<KeyFn&, const Candidate&>;
  std::vector<std::pair<Key, std::uint32_t>> order(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    order[i] = {key(candidates[source(i)]), i};
  }
  std::sort(order.begin(), order.end());
  std::vector<Candidate> sorted;
  sorted.reserve(n);
  for (const auto& entry : order) {
    sorted.push_back(std::move(candidates[source(entry.second)]));
  }
  candidates.swap(sorted);
}

std::unique_ptr<Policy> make_default_policy();
std::unique_ptr<Policy> make_mct_policy();
std::unique_ptr<Policy> make_mct_data_policy();
std::unique_ptr<Policy> make_fastest_policy();
std::unique_ptr<Policy> make_random_policy();

/// Plug-in registry: policies are constructed by name, so deployments and
/// config files can select them ("schedulerPolicy = mct"). Unknown names
/// return nullptr.
std::unique_ptr<Policy> make_policy(const std::string& name);

/// Names make_policy understands.
std::vector<std::string> policy_names();

}  // namespace gc::sched
