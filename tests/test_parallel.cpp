// The shared thread pool: chunking, nesting, exception propagation, jobs,
// and the determinism contract (byte-identical simulation snapshots at any
// thread count, and for a job run on a worker).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "check/invariant.hpp"
#include "check/lockorder.hpp"
#include "parallel/pool.hpp"
#include "ramses/simulation.hpp"

namespace {

using gc::parallel::chunk_count;
using gc::parallel::for_each_chunk;
using gc::parallel::Job;
using gc::parallel::parallel_for;
using gc::parallel::parallel_reduce;
using gc::parallel::set_thread_count;
using gc::parallel::start;
using gc::parallel::thread_count;

/// Restores the default thread count when a test exits.
struct ThreadCountGuard {
  ~ThreadCountGuard() { set_thread_count(0); }
};

TEST(Pool, DefaultThreadCountIsAtLeastOne) {
  EXPECT_GE(thread_count(), 1u);
}

TEST(Pool, SetThreadCountRoundtrip) {
  ThreadCountGuard guard;
  set_thread_count(3);
  EXPECT_EQ(thread_count(), 3u);
  set_thread_count(1);
  EXPECT_EQ(thread_count(), 1u);
  set_thread_count(0);  // back to default
  EXPECT_GE(thread_count(), 1u);
}

TEST(Pool, ChunkCount) {
  EXPECT_EQ(chunk_count(0, 0, 4), 0u);
  EXPECT_EQ(chunk_count(0, 1, 4), 1u);
  EXPECT_EQ(chunk_count(0, 4, 4), 1u);
  EXPECT_EQ(chunk_count(0, 5, 4), 2u);
  EXPECT_EQ(chunk_count(3, 11, 4), 2u);
  EXPECT_EQ(chunk_count(0, 8, 0), 8u);  // grain 0 treated as 1
}

TEST(Pool, ParallelForCoversEveryIndexOnce) {
  ThreadCountGuard guard;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    set_thread_count(threads);
    for (const std::size_t grain : {1u, 3u, 7u, 1000u}) {
      std::vector<std::atomic<int>> hits(257);
      for (auto& h : hits) h = 0;
      parallel_for(0, hits.size(), grain,
                   [&](std::size_t begin, std::size_t end) {
                     for (std::size_t i = begin; i < end; ++i) ++hits[i];
                   });
      for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i], 1) << "threads=" << threads << " grain=" << grain
                              << " index=" << i;
      }
    }
  }
}

TEST(Pool, EmptyAndSingleElementRanges) {
  ThreadCountGuard guard;
  set_thread_count(4);
  int calls = 0;
  parallel_for(5, 5, 8, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(5, 6, 8, [&](std::size_t begin, std::size_t end) {
    ++calls;
    EXPECT_EQ(begin, 5u);
    EXPECT_EQ(end, 6u);
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(for_each_chunk(0, 0, 16,
                           [](std::size_t, std::size_t, std::size_t) {}),
            0u);
}

TEST(Pool, NestedCallsRunInlineAndComplete) {
  ThreadCountGuard guard;
  set_thread_count(4);
  std::vector<std::atomic<int>> hits(64 * 16);
  for (auto& h : hits) h = 0;
  parallel_for(0, 64, 4, [&](std::size_t outer_b, std::size_t outer_e) {
    for (std::size_t o = outer_b; o < outer_e; ++o) {
      EXPECT_TRUE(gc::parallel::in_parallel_region());
      parallel_for(0, 16, 2, [&](std::size_t inner_b, std::size_t inner_e) {
        for (std::size_t i = inner_b; i < inner_e; ++i) ++hits[o * 16 + i];
      });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h, 1);
  EXPECT_FALSE(gc::parallel::in_parallel_region());
}

TEST(Pool, ExceptionPropagatesAndPoolSurvives) {
  ThreadCountGuard guard;
  for (const std::size_t threads : {1u, 4u}) {
    set_thread_count(threads);
    EXPECT_THROW(
        parallel_for(0, 100, 1,
                     [](std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) {
                         if (i == 73) throw std::runtime_error("boom");
                       }
                     }),
        std::runtime_error);
    // The pool must remain usable after a failed region.
    std::atomic<int> sum{0};
    parallel_for(0, 10, 1, [&](std::size_t begin, std::size_t end) {
      sum += static_cast<int>(end - begin);
    });
    EXPECT_EQ(sum, 10);
  }
}

TEST(Pool, ReduceMatchesSerialSum) {
  ThreadCountGuard guard;
  set_thread_count(4);
  const std::size_t n = 100000;
  const auto total = parallel_reduce(
      0, n, 1024, std::uint64_t{0},
      [](std::size_t begin, std::size_t end) {
        std::uint64_t s = 0;
        for (std::size_t i = begin; i < end; ++i) s += i;
        return s;
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(total, static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

TEST(Pool, ReduceIsBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  // A floating-point sum whose value depends on the reduction tree: the
  // fixed chunking + ordered combine must give the same bits at 1, 2, 5
  // threads.
  std::vector<double> values(10001);
  double x = 0.1;
  for (auto& v : values) {
    v = x;
    x = x * 1.0001 + 1e-7;
  }
  auto sum_with = [&](std::size_t threads) {
    set_thread_count(threads);
    return parallel_reduce(
        0, values.size(), 97, 0.0,
        [&](std::size_t begin, std::size_t end) {
          double s = 0.0;
          for (std::size_t i = begin; i < end; ++i) s += values[i];
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  const double s1 = sum_with(1);
  const double s2 = sum_with(2);
  const double s5 = sum_with(5);
  EXPECT_EQ(std::memcmp(&s1, &s2, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&s1, &s5, sizeof(double)), 0);
}

/// Byte-level equality of two particle sets (positions, momenta, masses,
/// ids — everything a snapshot carries).
bool byte_identical(const gc::ramses::ParticleSet& a,
                    const gc::ramses::ParticleSet& b) {
  auto same = [](const auto& u, const auto& v) {
    using T = typename std::decay_t<decltype(u)>::value_type;
    return u.size() == v.size() &&
           (u.empty() ||
            std::memcmp(u.data(), v.data(), u.size() * sizeof(T)) == 0);
  };
  return same(a.x, b.x) && same(a.y, b.y) && same(a.z, b.z) &&
         same(a.px, b.px) && same(a.py, b.py) && same(a.pz, b.pz) &&
         same(a.mass, b.mass) && same(a.id, b.id) && same(a.level, b.level);
}

TEST(Determinism, SimulationSnapshotsByteIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  gc::ramses::RunParams params;
  params.npart_dim = 8;
  params.pm_grid = 16;
  params.steps = 4;
  params.a_start = 0.1;
  params.seed = 1234;

  set_thread_count(1);
  const gc::ramses::RunResult serial = gc::ramses::run_simulation(params);
  set_thread_count(4);
  const gc::ramses::RunResult threaded = gc::ramses::run_simulation(params);

  ASSERT_FALSE(serial.snapshots.empty());
  ASSERT_EQ(serial.snapshots.size(), threaded.snapshots.size());
  for (std::size_t s = 0; s < serial.snapshots.size(); ++s) {
    EXPECT_EQ(serial.snapshots[s].aexp, threaded.snapshots[s].aexp);
    EXPECT_TRUE(byte_identical(serial.snapshots[s].particles,
                               threaded.snapshots[s].particles))
        << "snapshot " << s << " differs between GC_THREADS=1 and 4";
  }
}

TEST(Determinism, ZoomSimulationByteIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  gc::ramses::RunParams params;
  params.npart_dim = 8;
  params.pm_grid = 16;
  params.steps = 2;
  params.a_start = 0.1;
  params.seed = 77;
  params.zoom_levels = 1;
  params.zoom_centre = {0.5, 0.5, 0.5};

  set_thread_count(1);
  const auto serial = gc::ramses::run_simulation(params);
  set_thread_count(2);
  const auto threaded = gc::ramses::run_simulation(params);

  ASSERT_EQ(serial.snapshots.size(), threaded.snapshots.size());
  for (std::size_t s = 0; s < serial.snapshots.size(); ++s) {
    EXPECT_TRUE(byte_identical(serial.snapshots[s].particles,
                               threaded.snapshots[s].particles));
  }
}

// ---------- jobs ----------

void spin_until(const std::atomic<bool>& flag) {
  while (!flag.load()) std::this_thread::yield();
}

/// Holds whichever thread runs a job until opened: occupies pool workers
/// so that later jobs stay queued.
struct Gate {
  std::atomic<bool> open{false};
  void pass() const { spin_until(open); }
};

gc::ramses::RunParams small_run() {
  gc::ramses::RunParams params;
  params.npart_dim = 8;
  params.pm_grid = 16;
  params.steps = 4;
  params.a_start = 0.1;
  params.seed = 99;
  return params;
}

TEST(PoolJob, ResultEqualsInlineCall) {
  ThreadCountGuard guard;
  auto body = [] {
    int s = 0;
    for (int i = 0; i < 100000; ++i) s += i % 7;
    return s;
  };
  for (const std::size_t threads : {1u, 2u, 4u}) {
    set_thread_count(threads);
    std::vector<Job> jobs;
    for (int i = 0; i < 8; ++i) jobs.push_back(start(body));
    for (const Job& job : jobs) EXPECT_EQ(job.wait(), body());
  }
}

TEST(PoolJob, OneThreadRunsTheJobAtWaitOnTheCaller) {
  ThreadCountGuard guard;
  set_thread_count(1);
  std::atomic<bool> ran{false};
  std::thread::id where;
  const Job job = start([&] {
    ran = true;
    where = std::this_thread::get_id();
    return 5;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(ran);
  EXPECT_EQ(job.wait(), 5);
  EXPECT_TRUE(ran);
  EXPECT_EQ(where, std::this_thread::get_id());
  EXPECT_EQ(job.wait(), 5);  // a second wait returns the same result
}

TEST(PoolJob, WorkerRunsNestedRegionsInlineWithSerialBytes) {
  ThreadCountGuard guard;
  const gc::ramses::RunParams params = small_run();
  set_thread_count(1);
  const gc::ramses::RunResult serial = gc::ramses::run_simulation(params);

  set_thread_count(4);
  std::atomic<bool> started{false};
  std::thread::id where;
  bool in_region = false;
  std::mutex seen_mutex;
  std::set<std::thread::id> chunk_threads;
  auto note = [&] {
    std::lock_guard<std::mutex> lock(seen_mutex);
    chunk_threads.insert(std::this_thread::get_id());
  };
  gc::ramses::RunResult on_worker;
  const Job job = start([&] {
    started = true;
    where = std::this_thread::get_id();
    in_region = gc::parallel::in_parallel_region();
    parallel_for(0, 64, 4, [&](std::size_t, std::size_t) { note(); });
    for_each_chunk(0, 64, 4,
                   [&](std::size_t, std::size_t, std::size_t) { note(); });
    on_worker = gc::ramses::run_simulation(params);
    return 0;
  });
  spin_until(started);  // a worker claimed it before the wait
  EXPECT_EQ(job.wait(), 0);
  EXPECT_NE(where, std::this_thread::get_id());
  EXPECT_TRUE(in_region);
  EXPECT_EQ(chunk_threads, std::set<std::thread::id>{where});
  ASSERT_EQ(on_worker.snapshots.size(), serial.snapshots.size());
  for (std::size_t s = 0; s < serial.snapshots.size(); ++s) {
    EXPECT_TRUE(byte_identical(serial.snapshots[s].particles,
                               on_worker.snapshots[s].particles))
        << "snapshot " << s << " differs between a worker job and 1 thread";
  }
}

TEST(PoolJob, WaitOnAClaimedJobHelpsWithQueuedJobs) {
  ThreadCountGuard guard;
  set_thread_count(2);  // one worker
  Gate gate;
  std::atomic<bool> holding{false};
  const Job held = start([&] {
    holding = true;
    gate.pass();
    return 1;
  });
  spin_until(holding);
  std::thread::id b_thread, c_thread;
  const Job b = start([&] {
    b_thread = std::this_thread::get_id();
    return 2;
  });
  const Job c = start([&] {
    c_thread = std::this_thread::get_id();
    gate.open = true;  // only a helper can get here: the worker is held
    return 3;
  });
  EXPECT_EQ(held.wait(), 1);
  EXPECT_EQ(b.wait(), 2);
  EXPECT_EQ(c.wait(), 3);
  EXPECT_EQ(b_thread, std::this_thread::get_id());
  EXPECT_EQ(c_thread, std::this_thread::get_id());
}

TEST(PoolJob, ExceptionRethrowsAtWaitAndPoolSurvives) {
  ThreadCountGuard guard;
  for (const std::size_t threads : {1u, 4u}) {
    set_thread_count(threads);
    const Job job = start([]() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(job.wait(), std::runtime_error);
    std::atomic<int> sum{0};
    parallel_for(0, 10, 1, [&](std::size_t begin, std::size_t end) {
      sum += static_cast<int>(end - begin);
    });
    EXPECT_EQ(sum, 10);
    EXPECT_EQ(start([] { return 3; }).wait(), 3);
  }
}

TEST(PoolJob, DroppedHandleNeverRunsLateAndReleasesItsInputs) {
  ThreadCountGuard guard;
  auto input = std::make_shared<int>(7);
  std::atomic<int> runs{0};

  // One thread: nothing was queued, dropping cancels.
  set_thread_count(1);
  {
    const Job job = start([input, &runs] { return ++runs + *input; });
  }
  EXPECT_EQ(input.use_count(), 1);

  // Every worker held: the dropped job is still queued, and leaves it.
  set_thread_count(4);
  Gate gate;
  std::atomic<int> holding{0};
  std::vector<Job> blockers;
  for (int i = 0; i < 3; ++i) {
    blockers.push_back(start([&] {
      ++holding;
      gate.pass();
      return 0;
    }));
  }
  while (holding.load() < 3) std::this_thread::yield();
  {
    const Job job = start([input, &runs] { return ++runs + *input; });
  }
  EXPECT_EQ(input.use_count(), 1);
  gate.open = true;
  for (const Job& blocker : blockers) blocker.wait();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(runs.load(), 0);

  // A job a worker already runs is joined when its handle drops.
  std::atomic<bool> started{false};
  std::atomic<bool> finished{false};
  {
    const Job job = start([&] {
      started = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      finished = true;
      return 0;
    });
    spin_until(started);
  }
  EXPECT_TRUE(finished);
}

TEST(PoolJob, SetThreadCountWithJobsQueued) {
  ThreadCountGuard guard;
  for (const std::size_t resize_to : {4u, 1u}) {
    set_thread_count(2);  // one worker, held so the jobs below stay queued
    Gate gate;
    std::atomic<bool> holding{false};
    const Job blocker = start([&] {
      holding = true;
      gate.pass();
      // Kernels read the thread count; the resize is waiting for this
      // worker meanwhile and must not hold that read up.
      return thread_count() > 0 ? -1 : 0;
    });
    spin_until(holding);
    std::vector<Job> jobs;
    for (int i = 0; i < 6; ++i) jobs.push_back(start([i] { return i * i; }));
    // The resize joins the held worker, which finishes its job first.
    std::thread opener([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      gate.open = true;
    });
    set_thread_count(resize_to);
    opener.join();
    EXPECT_EQ(thread_count(), resize_to);
    for (int i = 0; i < 6; ++i) EXPECT_EQ(jobs[i].wait(), i * i);
    EXPECT_EQ(blocker.wait(), -1);
  }
}

void count_failure(const char*, int, const std::string&) {}

TEST(PoolJob, LockOrderTrackerStaysClean) {
  // GC_CHECK builds report every pool lock under its role ("pool.queue",
  // "pool.region", "pool.job", ...); an order cycle is a failure.
  ThreadCountGuard guard;
  gc::check::reset_failure_count();
  gc::check::set_failure_handler(&count_failure);
  gc::check::LockOrderRecorder::instance().reset();
  set_thread_count(4);
  const gc::ramses::RunParams params = small_run();
  std::vector<Job> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(start([params] {
      return static_cast<int>(
          gc::ramses::run_simulation(params).snapshots.size());
    }));
  }
  // The caller's own regions run while workers hold jobs.
  const std::size_t expected = gc::ramses::run_simulation(params).snapshots.size();
  { const Job dropped = start([] { return 0; }); }
  for (const Job& job : jobs) {
    EXPECT_EQ(static_cast<std::size_t>(job.wait()), expected);
  }
  EXPECT_EQ(gc::check::failure_count(), 0u);
  gc::check::set_failure_handler(nullptr);
  gc::check::LockOrderRecorder::instance().reset();
}

}  // namespace
