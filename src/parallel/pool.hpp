// Shared intra-process thread pool for the numerical kernels.
//
// The FFT pencil loops, the PM deposit/interpolation/leapfrog sweeps and
// the GRAFIC k-space loops are all embarrassingly (or reducibly) parallel;
// this module gives them one lazily-initialized pool instead of each
// spinning its own threads.
//
// Determinism contract (relied on by test_parallel and the snapshot
// byte-identity guarantee):
//   - `parallel_for` requires the body to write disjoint outputs per index;
//     chunk boundaries then cannot affect the result, so any thread count
//     (including the inline serial path) produces identical bytes.
//   - `for_each_chunk` / `parallel_reduce` use chunk boundaries that depend
//     only on (begin, end, grain) — never on the thread count — and
//     reductions combine the per-chunk partials in ascending chunk order on
//     the calling thread. No atomics ever touch floating-point accumulators.
//
// Thread count: GC_THREADS env var if set (>= 1), else
// std::thread::hardware_concurrency(); `set_thread_count` overrides at run
// time (benches sweep it). A count of 1 means no worker threads exist and
// every call runs inline on the caller.
//
// Nesting: a parallel region entered from inside a pool worker (or from a
// chunk the caller is executing) runs inline and serial on that thread —
// same arithmetic as the 1-thread path, no deadlock, no oversubscription.
//
// Jobs: `start(fn)` queues a whole independent computation (one real-mode
// RAMSES run) to the same workers, so several jobs proceed side by side.
// A worker runs a job's nested regions inline — the serial path above, so
// a job's bytes do not depend on where it ran. `wait()` joins it.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace gc::parallel {

/// Current configured thread count (>= 1). First call initializes from
/// GC_THREADS / hardware_concurrency.
std::size_t thread_count();

/// Reconfigures the pool. 0 restores the default (env / hardware). Safe to
/// call between parallel regions; joins and respawns workers as needed.
void set_thread_count(std::size_t n);

/// Runs fn(chunk_begin, chunk_end) over [begin, end) split into chunks of
/// `grain` indices (the last chunk may be short). The body must write
/// disjoint outputs per index. With 1 thread (or when nested inside another
/// region) this is exactly one inline fn(begin, end) call.
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn);

/// Runs fn(chunk_index, chunk_begin, chunk_end) for every chunk of the
/// fixed decomposition of [begin, end) by `grain`. Unlike parallel_for, the
/// serial path visits the *same* chunks (in ascending order) as the
/// parallel path, so per-chunk partial results are reproducible at any
/// thread count. Returns the number of chunks.
std::size_t for_each_chunk(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

/// Number of chunks the fixed decomposition produces (0 for empty ranges).
constexpr std::size_t chunk_count(std::size_t begin, std::size_t end,
                                  std::size_t grain) {
  const std::size_t n = end > begin ? end - begin : 0;
  const std::size_t g = grain == 0 ? 1 : grain;
  return (n + g - 1) / g;
}

/// Ordered map-reduce: partials[c] = map(chunk c) computed in parallel,
/// then combined left-to-right in chunk order on the calling thread.
/// Byte-identical results at any thread count.
template <typename T, typename MapFn, typename CombineFn>
T parallel_reduce(std::size_t begin, std::size_t end, std::size_t grain,
                  T identity, MapFn&& map, CombineFn&& combine) {
  const std::size_t nchunks = chunk_count(begin, end, grain);
  if (nchunks == 0) return identity;
  std::vector<T> partials(nchunks, identity);
  for_each_chunk(begin, end, grain,
                 [&](std::size_t c, std::size_t b, std::size_t e) {
                   partials[c] = map(b, e);
                 });
  T acc = std::move(identity);
  for (std::size_t c = 0; c < nchunks; ++c) {
    acc = combine(std::move(acc), std::move(partials[c]));
  }
  return acc;
}

/// True while the current thread is executing inside a parallel region
/// (worker or participating caller) or a job on a worker; nested regions
/// run inline then.
bool in_parallel_region();

struct JobState;

/// Handle on a job queued by `start`. Copies share the job. When the last
/// copy goes away without a wait(), a job no worker has claimed is
/// cancelled and a running one is waited for: no job outlives its owner.
class Job {
 public:
  Job() = default;

  /// The job's result. Runs the job here, with normal parallel regions,
  /// if no worker has claimed it yet; otherwise runs other queued jobs
  /// while it lasts, then blocks. Rethrows the job's exception.
  int wait() const;

 private:
  friend Job start(std::function<int()> fn);
  struct Owner;
  std::shared_ptr<Owner> owner_;
};

/// Queues `fn` to the pool workers and returns at once. With one thread,
/// or when called from inside a region or a job, nothing is queued and
/// `fn` runs at wait() on the waiting thread — the serial order.
Job start(std::function<int()> fn);

}  // namespace gc::parallel
