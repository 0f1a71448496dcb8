#include "sched/policy.hpp"

#include <algorithm>
#include <cmath>

namespace gc::sched {

namespace {

/// Outstanding load the scheduler believes a SED has.
double outstanding(const Candidate& c) {
  // agent_assigned already includes everything this MA routed to the SED
  // and has not seen complete; queue_length is the SED's own (possibly
  // slightly stale) view. Take the max so neither a stale SED view nor a
  // cold agent counter under-reports.
  return std::max(c.est.agent_assigned, c.est.queue_length);
}

class DefaultPolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "default"; }

  void rank(std::vector<Candidate>& candidates, const RequestContext&,
            Rng& rng) override {
    // Shuffle first so ties resolve uniformly (DIET's default behaviour:
    // share the requests, no power awareness), then stable-sort by
    // outstanding load. The shuffle permutes indices (same draws as
    // swapping the candidates), so each Candidate moves once.
    std::vector<std::uint32_t> shuffled(candidates.size());
    for (std::uint32_t i = 0; i < shuffled.size(); ++i) shuffled[i] = i;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.uniform_u64(i)]);
    }
    order_by_key(candidates, outstanding, shuffled);
  }
};

double completion_estimate(const Candidate& c) {
  // Per-job compute estimate: plugin-filled when available, otherwise
  // infer from the queue (queued_work / queue_length) or fall back to a
  // power-only ranking.
  double per_job = c.est.service_comp_s;
  if (per_job < 0.0) {
    per_job = c.est.queue_length > 0.0
                  ? c.est.queued_work_s / c.est.queue_length
                  : 1.0 / std::max(c.est.host_power, 1e-9);
  }
  const double backlog =
      std::max(c.est.queued_work_s, outstanding(c) * per_job);
  return backlog + per_job;
}

class MctPolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "mct"; }

  void rank(std::vector<Candidate>& candidates, const RequestContext&,
            Rng&) override {
    order_by_key(candidates, completion_estimate);
  }
};

class MctDataPolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "mct-data"; }

  void rank(std::vector<Candidate>& candidates, const RequestContext&,
            Rng&) override {
    order_by_key(candidates, data_completion);
  }

 private:
  static double data_completion(const Candidate& c) {
    // Completion estimate plus the cost of moving the request's
    // persistent inputs to this SED. Agents fill data_xfer_s from the
    // replica catalog and the platform cost model; when only the byte
    // count is known (unit tests, topology-less callers), convert it at
    // the WAN reference bandwidth of the Grid'5000 model (1 Gb/s).
    double xfer = c.est.data_xfer_s;
    if (xfer <= 0.0 && c.est.data_bytes_to_move > 0.0) {
      constexpr double kReferenceBandwidth = 1e9 / 8.0;  // bytes/second
      xfer = c.est.data_bytes_to_move / kReferenceBandwidth;
    }
    return completion_estimate(c) + xfer;
  }
};

class FastestPolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "fastest"; }

  void rank(std::vector<Candidate>& candidates, const RequestContext&,
            Rng&) override {
    order_by_key(candidates,
                 [](const Candidate& c) { return -c.est.host_power; });
  }
};

class RandomPolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "random"; }

  void rank(std::vector<Candidate>& candidates, const RequestContext&,
            Rng& rng) override {
    for (std::size_t i = candidates.size(); i > 1; --i) {
      std::swap(candidates[i - 1], candidates[rng.uniform_u64(i)]);
    }
  }
};

}  // namespace

std::unique_ptr<Policy> make_default_policy() {
  return std::make_unique<DefaultPolicy>();
}
std::unique_ptr<Policy> make_mct_policy() {
  return std::make_unique<MctPolicy>();
}
std::unique_ptr<Policy> make_mct_data_policy() {
  return std::make_unique<MctDataPolicy>();
}
std::unique_ptr<Policy> make_fastest_policy() {
  return std::make_unique<FastestPolicy>();
}
std::unique_ptr<Policy> make_random_policy() {
  return std::make_unique<RandomPolicy>();
}

std::unique_ptr<Policy> make_policy(const std::string& name) {
  if (name == "default") return make_default_policy();
  if (name == "mct") return make_mct_policy();
  if (name == "mct-data") return make_mct_data_policy();
  if (name == "fastest") return make_fastest_policy();
  if (name == "random") return make_random_policy();
  return nullptr;
}

std::vector<std::string> policy_names() {
  return {"default", "mct", "mct-data", "fastest", "random"};
}

}  // namespace gc::sched
