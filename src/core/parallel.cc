#include "core/parallel.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

namespace mmbench {
namespace core {

namespace {

thread_local bool t_in_worker = false;

/**
 * True while this thread has a parallelFor job in flight. A nested
 * parallelFor from inside the body (e.g. batched matmul dispatching
 * per-batch blocked GEMMs) must run inline: re-entering the pool
 * would clobber the active job's cursor/completion state.
 */
thread_local bool t_job_active = false;

/** Effective thread count override (0 = use pool maximum). */
std::atomic<int> g_override{0};

/**
 * How long a worker stays awake polling for the next job after its
 * last one, and how long the caller polls for late workers before it
 * sleeps. Consecutive kernels of one forward pass are microseconds
 * apart, so a worker that stays awake this long joins the next job
 * without a futex wake; an idle process still sleeps after it.
 */
constexpr std::chrono::microseconds kSpinWindow{50};

int
envThreadCount()
{
    const char *env = std::getenv("MMBENCH_NUM_THREADS");
    if (env && *env) {
        const long v = std::strtol(env, nullptr, 10);
        if (v >= 1 && v <= 1024)
            return static_cast<int>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

/** Spin-wait hint: lets a hyperthread sibling run while we poll. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/** Poll `done` until it holds or kSpinWindow passes. */
template <typename Pred>
bool
spinUntil(Pred done)
{
    const auto deadline = std::chrono::steady_clock::now() + kSpinWindow;
    for (;;) {
        if (done())
            return true;
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        cpuRelax();
    }
}

/**
 * Persistent worker pool running one job at a time. A job's state is
 * one atomic word: its generation, how many workers may still join
 * (the cap) and how many have joined and not yet left. The caller
 * publishes a job by storing a new generation, wakes only as many
 * sleeping workers as the job can use, and works on the range itself.
 * A worker joins by raising the joined count while it is below the
 * cap, pulls chunks off a shared atomic cursor (so imbalance between
 * chunks self-levels) and lowers the count when the cursor is spent.
 * When the caller's own pulls find the cursor spent it closes the job
 * (cap 0, so no late waker joins) and returns once the joined count
 * is zero. Bounding joins by the cap also makes ScopedNumThreads
 * bound real concurrency, whichever workers wake.
 *
 * The job fields (range end, chunk, body) are plain members: the
 * caller writes them only while no worker is joined, and a worker
 * reads them only while it is joined.
 */
class ThreadPool
{
  public:
    /** Never destroyed: the workers live until the process ends, so
     *  exit-time teardown never waits on them. A child forked from a
     *  running pool (gtest death tests) has no workers, and notifying
     *  a condition variable its missing workers were waiting on at the
     *  fork can block forever. */
    static ThreadPool &
    instance()
    {
        static ThreadPool *pool = new ThreadPool(envThreadCount());
        return *pool;
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int maxThreads() const { return maxThreads_; }

    void
    run(int64_t begin, int64_t end, int64_t chunk, int worker_limit,
        const RangeFn &fn)
    {
        // One job at a time; concurrent submitting threads queue here.
        std::lock_guard<std::mutex> job_lock(jobMutex_);
        jobEnd_ = end;
        jobChunk_ = chunk;
        jobFn_ = &fn;
        cursor_.store(begin, std::memory_order_relaxed);
        const int64_t chunks = (end - begin + chunk - 1) / chunk;
        const int cap =
            static_cast<int>(std::min<int64_t>(worker_limit, chunks - 1));
        generation_ = (generation_ + 1) & kGenMask;
        // seq_cst pairs with the sleepers_ increment in awaitJob: either
        // we count a worker as asleep, or it sees this generation.
        state_.store(pack(generation_, cap, 0));
        wakeSleepers(cap);

        work(); // the caller participates too

        // The cursor is spent: close the job and wait for the workers
        // still running their last chunk.
        const uint64_t prev =
            state_.fetch_and(~kCapMask, std::memory_order_acq_rel);
        if (joined(prev) == 0)
            return;
        const auto drained = [this] {
            return joined(state_.load(std::memory_order_acquire)) == 0;
        };
        if (spinUntil(drained))
            return;
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, drained);
    }

  private:
    // state_ layout: generation << 32 | cap << 16 | joined.
    static constexpr uint64_t kJoinedMask = 0xffff;
    static constexpr uint64_t kCapMask = 0xffffull << 16;
    static constexpr uint64_t kGenMask = 0xffffffff;

    static uint64_t
    pack(uint64_t gen, int cap, int count)
    {
        return gen << 32 | static_cast<uint64_t>(cap) << 16 |
               static_cast<uint64_t>(count);
    }
    static uint64_t genOf(uint64_t s) { return s >> 32; }
    static int
    capOf(uint64_t s)
    {
        return static_cast<int>((s & kCapMask) >> 16);
    }
    static int
    joined(uint64_t s)
    {
        return static_cast<int>(s & kJoinedMask);
    }

    explicit ThreadPool(int max_threads)
        : maxThreads_(max_threads < 1 ? 1 : max_threads)
    {
        for (int i = 0; i < maxThreads_ - 1; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    }

    int numWorkers() const { return maxThreads_ - 1; }

    /** Wake as many sleeping workers as the job can use beyond those
     *  already awake. */
    void
    wakeSleepers(int cap)
    {
        const int asleep = sleepers_.load();
        const int awake = numWorkers() - asleep;
        const int want = std::min(cap - awake, asleep);
        if (want <= 0)
            return;
        // Taking the mutex orders the wake after a sleeper's predicate
        // check; notifying after release spares the woken workers a
        // wait for it.
        { std::lock_guard<std::mutex> lock(mutex_); }
        if (want == asleep)
            wake_.notify_all();
        else
            for (int i = 0; i < want; ++i)
                wake_.notify_one();
    }

    void
    workerLoop()
    {
        t_in_worker = true;
        uint64_t seen = 0;
        for (;;) {
            const uint64_t s = awaitJob(seen);
            seen = genOf(s);
            if (join(s)) {
                work();
                leave();
            }
        }
    }

    /** Spin, then sleep, until a generation other than `seen` is
     *  published; returns the state seen. */
    uint64_t
    awaitJob(uint64_t seen)
    {
        uint64_t s = 0;
        const auto published = [&] {
            s = state_.load(std::memory_order_acquire);
            return genOf(s) != seen;
        };
        if (spinUntil(published))
            return s;
        std::unique_lock<std::mutex> lock(mutex_);
        sleepers_.fetch_add(1);
        wake_.wait(lock, [&] {
            s = state_.load();
            return genOf(s) != seen;
        });
        sleepers_.fetch_sub(1);
        return s;
    }

    /** Count this worker into the job whose state is `s`, if that job
     *  is still open and below its cap. */
    bool
    join(uint64_t s)
    {
        const uint64_t gen = genOf(s);
        while (genOf(s) == gen && joined(s) < capOf(s)) {
            if (state_.compare_exchange_weak(s, s + 1,
                                             std::memory_order_acquire))
                return true;
        }
        return false;
    }

    void
    leave()
    {
        const uint64_t prev =
            state_.fetch_sub(1, std::memory_order_acq_rel);
        if (joined(prev) == 1 && capOf(prev) == 0) {
            // Last one out of a closed job: the caller may be asleep.
            { std::lock_guard<std::mutex> lock(mutex_); }
            done_.notify_one();
        }
    }

    /** Pull chunks until the range is exhausted. noexcept: a throwing
     *  body would leave the job open with workers still joined. */
    void
    work() noexcept
    {
        for (;;) {
            const int64_t b =
                cursor_.fetch_add(jobChunk_, std::memory_order_relaxed);
            if (b >= jobEnd_)
                return;
            const int64_t e = std::min(b + jobChunk_, jobEnd_);
            (*jobFn_)(b, e);
        }
    }

    const int maxThreads_;

    std::mutex jobMutex_;
    uint64_t generation_ = 0; // guarded by jobMutex_
    int64_t jobEnd_ = 0;
    int64_t jobChunk_ = 1;
    const RangeFn *jobFn_ = nullptr;

    alignas(64) std::atomic<int64_t> cursor_{0};
    alignas(64) std::atomic<uint64_t> state_{0};

    alignas(64) std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    std::atomic<int> sleepers_{0};

    std::vector<std::thread> workers_;
};

} // namespace

int
maxThreads()
{
    return ThreadPool::instance().maxThreads();
}

int
numThreads()
{
    const int cap = maxThreads();
    const int ov = g_override.load(std::memory_order_relaxed);
    if (ov >= 1)
        return ov < cap ? ov : cap;
    return cap;
}

bool
inParallelRegion()
{
    return t_in_worker;
}

void
parallelFor(int64_t begin, int64_t end, int64_t grain, const RangeFn &fn)
{
    if (begin >= end)
        return;
    if (grain < 1)
        grain = 1;
    const int64_t range = end - begin;
    const int threads = numThreads();
    if (threads <= 1 || range <= grain || t_in_worker || t_job_active) {
        fn(begin, end);
        return;
    }
    // Chunk so chunks stay >= grain while giving the cursor enough
    // pieces (4 per thread) to level out imbalance between chunks.
    const int64_t max_chunks = (range + grain - 1) / grain;
    int64_t chunks =
        std::min<int64_t>(max_chunks, static_cast<int64_t>(threads) * 4);
    const int64_t chunk = (range + chunks - 1) / chunks;
    struct JobFlagGuard
    {
        JobFlagGuard() { t_job_active = true; }
        ~JobFlagGuard() { t_job_active = false; }
    } guard;
    ThreadPool::instance().run(begin, end, chunk, threads - 1, fn);
}

ScopedNumThreads::ScopedNumThreads(int n)
    : prev_(g_override.exchange(n < 1 ? 1 : n))
{
}

ScopedNumThreads::~ScopedNumThreads()
{
    g_override.store(prev_);
}

} // namespace core
} // namespace mmbench
