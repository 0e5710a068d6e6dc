/**
 * @file
 * Shared parallel runtime: a persistent worker pool with a
 * parallelFor(begin, end, grain, fn) API used by the tensor kernel
 * hot paths.
 *
 * Design constraints, in order:
 *
 *  1. Determinism. Every kernel built on parallelFor writes disjoint
 *     output ranges and performs the exact same per-element arithmetic
 *     regardless of how the range is chunked, so results are bitwise
 *     identical for any thread count (MMBENCH_NUM_THREADS=1 vs =N).
 *  2. Trace fidelity. Kernel/alloc event emission stays on the calling
 *     thread: worker threads never emit trace events (the per-thread
 *     sink is simply absent there), so the event stream the simulator
 *     consumes is unchanged by parallel execution.
 *  3. A job costs only what it uses. Ranges at or below one grain run
 *     inline on the caller with no synchronization, and nested
 *     parallelFor calls (from a worker or from the caller's own chunk)
 *     degrade to serial. Otherwise the caller wakes only as many
 *     sleeping workers as the job has chunks to spare, up to the
 *     thread count; a worker counts itself in when it joins and out
 *     when the range is spent, and the caller returns as soon as its
 *     own pulls find the range spent and no joined worker is left.
 *     Workers stay awake polling for a short fixed window after a
 *     job, so the next kernel of the same pass finds them running;
 *     after that they sleep, so an idle process uses no CPU.
 *
 * Bodies must not throw. In a job run on the pool an exception leaving
 * a body ends the program (std::terminate), on a worker and on the
 * calling thread alike.
 *
 * Thread count: MMBENCH_NUM_THREADS environment variable, read once at
 * pool creation; defaults to std::thread::hardware_concurrency().
 * Setting it to 1 (or ScopedNumThreads(1)) forces serial execution.
 */

#ifndef MMBENCH_CORE_PARALLEL_HH
#define MMBENCH_CORE_PARALLEL_HH

#include <cstdint>
#include <functional>

namespace mmbench {
namespace core {

/** Body signature: process the half-open index range [begin, end). */
using RangeFn = std::function<void(int64_t begin, int64_t end)>;

/**
 * Run fn over [begin, end) split into contiguous chunks of roughly
 * `grain` indices, on the worker pool plus the calling thread.
 * Blocks until every chunk is done. Falls back to a single inline
 * call when the range is small, the effective thread count is 1, or
 * the call is nested inside another parallelFor — whether from a pool
 * worker or from the submitting thread's own chunk of an active job.
 */
void parallelFor(int64_t begin, int64_t end, int64_t grain,
                 const RangeFn &fn);

/** Effective thread count parallelFor will use (>= 1). */
int numThreads();

/** Maximum thread count the pool was built with (>= 1). */
int maxThreads();

/** True when called from inside a pool worker thread. */
bool inParallelRegion();

/**
 * RAII override of the effective thread count, clamped to
 * [1, maxThreads()]. Used by tests to compare serial vs parallel
 * execution and by callers that need a serial section.
 */
class ScopedNumThreads
{
  public:
    explicit ScopedNumThreads(int n);
    ~ScopedNumThreads();

    ScopedNumThreads(const ScopedNumThreads &) = delete;
    ScopedNumThreads &operator=(const ScopedNumThreads &) = delete;

  private:
    int prev_;
};

} // namespace core
} // namespace mmbench

#endif // MMBENCH_CORE_PARALLEL_HH
