// Service table and solve-function machinery (DIET_server.h equivalent).
//
// A SED owns a ServiceTable mapping profile descriptions to solve
// functions (Section 4.2.2: diet_service_table_add). Solve functions are
// written in continuation style against a ServiceContext so the same code
// runs under the DES (virtual durations) and under RealEnv (actual
// computation on worker threads); a synchronous adapter reproduces the
// paper's `int solve_serviceName(diet_profile_t*)` shape.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "diet/profile.hpp"
#include "net/env.hpp"
#include "sched/estimation.hpp"

namespace gc::diet {

/// Everything a solve function may touch while servicing one call.
/// finish() must be called exactly once; compute() models/performs the
/// heavy part.
class ServiceContext {
 public:
  virtual ~ServiceContext() = default;

  [[nodiscard]] virtual Profile& profile() = 0;
  [[nodiscard]] virtual net::Env& env() = 0;
  /// Aggregate relative power of the machines behind this SED.
  [[nodiscard]] virtual double host_power() const = 0;
  [[nodiscard]] virtual int machines() const = 0;
  [[nodiscard]] virtual const std::string& sed_name() const = 0;
  /// Per-SED scratch directory (the cluster's NFS working dir stand-in).
  [[nodiscard]] virtual const std::string& work_dir() const = 0;
  [[nodiscard]] virtual Rng& rng() = 0;
  [[nodiscard]] SimTime now() { return env().now(); }

  /// Runs `work` as the service's computation phase. Under the DES the
  /// virtual clock advances by modeled_seconds and `work` then runs
  /// inline at the completion event (keep it cheap there); under RealEnv
  /// `work` runs on a worker thread for however long it takes.
  /// `then(work_result)` continues on the dispatch context. Heavy real
  /// work starts earlier: the real-mode services start their numerics as
  /// a parallel::Job when the solve function runs and pass a `work` that
  /// only joins it (workflow/services.cpp).
  virtual void compute(double modeled_seconds, std::function<int()> work,
                       std::function<void(int)> then) = 0;

  /// Completes the call: ships INOUT/OUT arguments back with the given
  /// solve status (0 = success, like solve_ramsesZoom2's error code).
  virtual void finish(int solve_status) = 0;
};

/// Continuation-style solve function.
using SolveFn = std::function<void(ServiceContext&)>;

/// Paper-style synchronous solve function.
using SyncSolveFn = std::function<int(Profile&)>;

/// Optional plug-in performance estimator: fills service-specific fields
/// of the estimation vector (paper ref [2]). Called on the SED for every
/// scheduling request for this service.
using PerfEstimator = std::function<void(const ProfileDesc& request,
                                         double host_power, int machines,
                                         sched::Estimation& est)>;

struct ServiceEntry {
  ProfileDesc desc;
  SolveFn solve;
  PerfEstimator estimator;  ///< may be null
};

class ServiceTable {
 public:
  explicit ServiceTable(std::size_t max_size = 64) : max_size_(max_size) {}

  /// diet_service_table_add. Fails when full or when an equal profile is
  /// already registered.
  gc::Status add(const ProfileDesc& desc, SolveFn solve,
                 PerfEstimator estimator = nullptr);

  /// Adapter for paper-style synchronous solvers: the whole body runs as
  /// the computation phase; `modeled_cost` prices it for the DES (null =>
  /// zero virtual duration).
  gc::Status add_sync(
      const ProfileDesc& desc, SyncSolveFn solve,
      std::function<double(const Profile&, double power, int machines)>
          modeled_cost = nullptr,
      PerfEstimator estimator = nullptr);

  /// Finds a service whose registered profile matches the request.
  [[nodiscard]] const ServiceEntry* find(const ProfileDesc& request) const;
  [[nodiscard]] const ServiceEntry* find_by_path(const std::string& path) const;

  [[nodiscard]] std::vector<std::string> service_paths() const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// diet_print_service_table.
  [[nodiscard]] std::string to_string() const;

 private:
  std::size_t max_size_;
  std::vector<ServiceEntry> entries_;
};

}  // namespace gc::diet
