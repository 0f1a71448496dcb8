#include "parallel/pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "check/lockorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gc::parallel {

namespace {

thread_local bool tls_in_region = false;

/// Wall-time of one chunk execution; a no-op (no clock read) while metrics
/// are off. The histogram reference is cached — Metrics::reset() zeroes
/// values but never invalidates instruments.
void timed_chunk(const std::function<void(std::size_t)>& fn, std::size_t i) {
  if (!obs::metrics_on()) {
    fn(i);
    return;
  }
  static obs::Histogram& chunk_seconds = obs::Metrics::instance().histogram(
      "parallel_chunk_seconds", obs::latency_buckets_s());
  const double t0 = obs::wall_seconds();
  fn(i);
  chunk_seconds.observe(obs::wall_seconds() - t0);
}

constexpr std::size_t kMaxThreads = 256;

std::size_t default_thread_count() {
  if (const char* env = std::getenv("GC_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && v >= 1) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<std::size_t>(hw) : 1;
}

/// One parallel region: a batch of chunk indices claimed via an atomic
/// counter. Lives in a shared_ptr so late-waking workers can probe an
/// already-finished region safely.
struct Region {
  std::function<void(std::size_t)> fn;  ///< fn(chunk_index)
  std::size_t nchunks = 0;
  std::atomic<std::size_t> next{0};
  std::mutex m;
  std::condition_variable cv_done;
  std::size_t done = 0;             ///< executed chunks, guarded by m
  std::exception_ptr error;         ///< first failure, guarded by m
};

}  // namespace

/// One job queued by `start`. `claimed` is guarded by the pool's queue
/// mutex; the outcome by `m` (role "pool.job"). The two are never held
/// together.
struct JobState {
  std::function<int()> fn;  ///< released once the job has run
  bool claimed = false;     ///< a thread took it (or its owner cancelled it)
  std::mutex m;
  std::condition_variable cv_done;
  bool done = false;
  int result = 0;
  std::exception_ptr error;
};

namespace {

class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  /// Lock-free so a job running on a worker can read it while resize()
  /// holds the config lock and waits for that worker.
  std::size_t threads() const { return threads_.load(); }

  void resize(std::size_t n) {
    GC_TRACKED_LOCK(config, config_mutex_, "pool.config");
    // Serialize against in-flight regions so workers die between batches.
    GC_TRACKED_LOCK(submit, submit_mutex_, "pool.submit");
    if (n == 0) n = default_thread_count();
    // Cap absurd requests (negative CLI values cast to size_t, runaway
    // GC_THREADS) — beyond this, more workers only add contention.
    if (n > kMaxThreads) n = kMaxThreads;
    if (n == threads_.load()) return;
    stop_workers();  // queued jobs stay queued for the new workers
    threads_ = n;
    spawn_workers();
  }

  void enqueue(const std::shared_ptr<JobState>& job) {
    {
      GC_TRACKED_LOCK(lock, mutex_, "pool.queue");
      jobs_.push_back(job);
    }
    cv_work_.notify_one();
  }

  /// Claims `job` for the calling thread; false if another thread holds
  /// it already. A claimed job leaves the queue.
  bool claim(JobState& job) {
    GC_TRACKED_LOCK(lock, mutex_, "pool.queue");
    if (job.claimed) return false;
    job.claimed = true;
    const auto it = std::find_if(
        jobs_.begin(), jobs_.end(),
        [&](const std::shared_ptr<JobState>& q) { return q.get() == &job; });
    if (it != jobs_.end()) jobs_.erase(it);
    return true;
  }

  /// Claims the oldest queued job, if any.
  std::shared_ptr<JobState> claim_next() {
    GC_TRACKED_LOCK(lock, mutex_, "pool.queue");
    return pop_job();
  }

  /// Runs a claimed job and publishes its outcome. As a worker runs it,
  /// its nested regions run inline.
  static void run_job(JobState& job, bool regions_inline) {
    const bool was_in_region = tls_in_region;
    tls_in_region = was_in_region || regions_inline;
    int result = 0;
    std::exception_ptr error;
    try {
      result = job.fn();
    } catch (...) {
      error = std::current_exception();
    }
    tls_in_region = was_in_region;
    job.fn = nullptr;  // drop the captured inputs now, not at the last handle
    GC_TRACKED_LOCK(lock, job.m, "pool.job");
    job.done = true;
    job.result = result;
    job.error = error;
    job.cv_done.notify_all();
  }

  static bool finished(JobState& job) {
    GC_TRACKED_LOCK(lock, job.m, "pool.job");
    return job.done;
  }

  static void block_until_done(JobState& job) {
    check::LockTracker tracker("pool.job", __FILE__, __LINE__);
    std::unique_lock<std::mutex> lock(job.m);
    job.cv_done.wait(lock, [&] { return job.done; });
  }

  void run(std::size_t nchunks, const std::function<void(std::size_t)>& fn) {
    if (nchunks == 0) return;
    if (tls_in_region || nchunks == 1 || threads() == 1) {
      run_inline(nchunks, fn);
      return;
    }
    GC_TRACKED_LOCK(submit, submit_mutex_, "pool.submit");
    if (workers_.empty()) {  // resized to 1 while we waited
      run_inline(nchunks, fn);
      return;
    }
    auto region = std::make_shared<Region>();
    region->fn = fn;
    region->nchunks = nchunks;
    {
      GC_TRACKED_LOCK(lock, mutex_, "pool.queue");
      region_ = region;
      ++epoch_;
    }
    cv_work_.notify_all();
    execute(*region);  // the caller is a worker too
    {
      check::LockTracker tracker("pool.region", __FILE__, __LINE__);
      std::unique_lock<std::mutex> lock(region->m);
      region->cv_done.wait(lock,
                           [&] { return region->done == region->nchunks; });
    }
    {
      GC_TRACKED_LOCK(lock, mutex_, "pool.queue");
      region_.reset();
    }
    if (region->error) std::rethrow_exception(region->error);
  }

 private:
  Pool() {
    threads_ = default_thread_count();
    spawn_workers();
  }

  ~Pool() { stop_workers(); }

  void spawn_workers() {
    stop_ = false;
    for (std::size_t i = 1; i < threads_; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  void stop_workers() {
    {
      GC_TRACKED_LOCK(lock, mutex_, "pool.queue");
      stop_ = true;
      ++epoch_;
    }
    cv_work_.notify_all();
    for (auto& w : workers_) w.join();
    workers_.clear();
  }

  /// Caller holds mutex_.
  std::shared_ptr<JobState> pop_job() {
    if (jobs_.empty()) return nullptr;
    std::shared_ptr<JobState> job = std::move(jobs_.front());
    jobs_.pop_front();
    job->claimed = true;
    return job;
  }

  /// Regions come first: their caller is blocked on them, while a job's
  /// owner only waits at its virtual completion.
  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Region> region;
      std::shared_ptr<JobState> job;
      {
        check::LockTracker tracker("pool.queue", __FILE__, __LINE__);
        std::unique_lock<std::mutex> lock(mutex_);
        cv_work_.wait(lock, [&] {
          return stop_ || epoch_ != seen || !jobs_.empty();
        });
        if (stop_) return;
        if (epoch_ != seen) {
          seen = epoch_;
          region = region_;
        } else {
          job = pop_job();
        }
      }
      if (region) execute(*region);
      if (job) run_job(*job, /*regions_inline=*/true);
    }
  }

  /// Claims and executes chunks until the region is drained. Marks the
  /// thread as in-region so nested parallel calls run inline.
  static void execute(Region& region) {
    const bool was_in_region = tls_in_region;
    tls_in_region = true;
    for (;;) {
      const std::size_t i = region.next.fetch_add(1);
      if (i >= region.nchunks) break;
      std::exception_ptr error;
      try {
        timed_chunk(region.fn, i);
      } catch (...) {
        error = std::current_exception();
      }
      GC_TRACKED_LOCK(lock, region.m, "pool.region");
      if (error && !region.error) region.error = error;
      if (++region.done == region.nchunks) region.cv_done.notify_all();
    }
    tls_in_region = was_in_region;
  }

  static void run_inline(std::size_t nchunks,
                         const std::function<void(std::size_t)>& fn) {
    const bool was_in_region = tls_in_region;
    tls_in_region = true;
    try {
      for (std::size_t i = 0; i < nchunks; ++i) timed_chunk(fn, i);
    } catch (...) {
      tls_in_region = was_in_region;
      throw;
    }
    tls_in_region = was_in_region;
  }

  std::mutex config_mutex_;   ///< serializes resize() calls
  std::mutex submit_mutex_;   ///< one region at a time
  std::mutex mutex_;          ///< guards region_/epoch_/stop_/jobs_
  std::condition_variable cv_work_;
  std::vector<std::thread> workers_;
  std::shared_ptr<Region> region_;
  std::deque<std::shared_ptr<JobState>> jobs_;  ///< unclaimed, oldest first
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
  std::atomic<std::size_t> threads_{1};
};

}  // namespace

std::size_t thread_count() { return Pool::instance().threads(); }

void set_thread_count(std::size_t n) { Pool::instance().resize(n); }

bool in_parallel_region() { return tls_in_region; }

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
  if (end <= begin) return;
  const std::size_t g = grain == 0 ? 1 : grain;
  const std::size_t nchunks = chunk_count(begin, end, g);
  if (tls_in_region || nchunks == 1 || thread_count() == 1) {
    fn(begin, end);  // exact serial path: one contiguous sweep
    return;
  }
  Pool::instance().run(nchunks, [&](std::size_t c) {
    const std::size_t b = begin + c * g;
    const std::size_t e = b + g < end ? b + g : end;
    fn(b, e);
  });
}

/// Shared by every copy of a Job handle; its destructor is the drop rule.
struct Job::Owner {
  std::shared_ptr<JobState> state;

  ~Owner() {
    if (Pool::instance().claim(*state)) {
      state->fn = nullptr;  // cancelled: never runs
    } else {
      Pool::block_until_done(*state);
    }
  }
};

Job start(std::function<int()> fn) {
  auto state = std::make_shared<JobState>();
  state->fn = std::move(fn);
  Job job;
  job.owner_ = std::make_shared<Job::Owner>();
  job.owner_->state = state;
  if (!tls_in_region && thread_count() > 1) Pool::instance().enqueue(state);
  return job;
}

int Job::wait() const {
  JobState& state = *owner_->state;
  Pool& pool = Pool::instance();
  if (pool.claim(state)) {
    Pool::run_job(state, /*regions_inline=*/false);
  } else {
    while (!Pool::finished(state)) {
      const std::shared_ptr<JobState> other = pool.claim_next();
      if (!other) break;
      Pool::run_job(*other, /*regions_inline=*/true);
    }
    Pool::block_until_done(state);
  }
  if (state.error) std::rethrow_exception(state.error);
  return state.result;
}

std::size_t for_each_chunk(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  const std::size_t g = grain == 0 ? 1 : grain;
  const std::size_t nchunks = chunk_count(begin, end, g);
  if (nchunks == 0) return 0;
  Pool::instance().run(nchunks, [&](std::size_t c) {
    const std::size_t b = begin + c * g;
    const std::size_t e = b + g < end ? b + g : end;
    fn(c, b, e);
  });
  return nchunks;
}

}  // namespace gc::parallel
