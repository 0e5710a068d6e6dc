/**
 * @file
 * MemoryPool: the size-bucketed, thread-aware storage arena behind
 * tensor::Storage.
 *
 * Every tensor allocation is a pool request. Blocks are rounded up to
 * power-of-two float-capacity buckets and recycled through free lists,
 * so steady-state inference reaches near-zero malloc traffic and newly
 * acquired blocks skip the page-zeroing a fresh std::vector pays.
 * Returned memory is deliberately NOT cleared: Tensor's uninitialized
 * constructor is truly uninitialized, and the zeroed factories
 * (Tensor::zeros/full) overwrite explicitly.
 *
 * Thread awareness: each thread owns a private shard of free lists.
 * Releases always land in the releasing thread's shard and acquisitions
 * try the local shard first, so concurrent serve-mode requests recycle
 * their own intermediates without contending on (or fragmenting) a
 * shared free list. Only shard overflow and shard-miss refills touch
 * the global, mutex-protected lists.
 *
 * Accounting is split into logical and physical views:
 *  - the trace layer keeps receiving one alloc/free event per Storage
 *    lifetime (logical bytes), so the simulator's watermark
 *    reconstruction is unchanged; events carry a `pooled` flag telling
 *    the sim which acquisitions were free-list hits;
 *  - PoolStats counts physical behaviour (requests, hits, fresh mallocs,
 *    bytes in use, high-water) for the runner's mem.* result fields.
 */

#ifndef MMBENCH_TENSOR_POOL_HH
#define MMBENCH_TENSOR_POOL_HH

#include <cstdint>

namespace mmbench {
namespace tensor {

/** Physical allocator counters (monotonic; diff snapshots to window). */
struct PoolStats
{
    uint64_t requests = 0;   ///< storage allocation requests
    uint64_t poolHits = 0;   ///< requests satisfied from a free list
    uint64_t freshAllocs = 0;///< requests that hit the OS allocator
    uint64_t bytesInUse = 0; ///< capacity bytes of live storages
    uint64_t peakBytes = 0;  ///< high-water of bytesInUse since reset
    uint64_t cachedBytes = 0;///< capacity bytes parked in free lists

    /** Fraction of requests served from a free list (0 when idle). */
    double reuseRatio() const
    {
        return requests == 0
                   ? 0.0
                   : static_cast<double>(poolHits) /
                         static_cast<double>(requests);
    }
};

/** One acquired block: pointer, rounded capacity, and its origin. */
struct PoolBlock
{
    float *data = nullptr;
    int64_t capacity = 0; ///< floats, bucket-rounded (>= requested)
    bool pooled = false;  ///< true when recycled from a free list
};

/**
 * The process-wide storage arena. All methods are thread-safe; the
 * fast path (shard hit) takes no lock.
 */
class MemoryPool
{
  public:
    /** The singleton arena every Storage allocates through. */
    static MemoryPool &instance();

    /**
     * Acquire a block of at least `numel` floats, uninitialized.
     * numel == 0 yields a valid zero-capacity block.
     */
    PoolBlock acquire(int64_t numel);

    /** Return a block to the releasing thread's shard. */
    void release(const PoolBlock &block);

    /** Snapshot of the counters (consistent enough for reporting). */
    PoolStats stats() const;

    /** Restart the peak-bytes high-water from the current usage. */
    void resetPeak();

    /**
     * Move every block cached by the *calling* thread's shard to the
     * global free lists (other threads' shards are unreachable).
     */
    void flushThisThreadShard();

    /**
     * Free all globally cached blocks back to the OS. Blocks parked in
     * other threads' shards stay cached until those threads flush.
     */
    void trim();

    /**
     * Enable/disable recycling. Disabled, every acquire is a fresh
     * OS allocation and every release a free — the pre-arena
     * behaviour, minus the zero-fill (both paths hand out
     * uninitialized memory, which the pool-on/off bitwise-identity
     * tests rely on). Reads MMBENCH_POOL (0 disables) at startup.
     */
    void setEnabled(bool on);
    bool enabled() const;

    /** Bucket capacity (floats) a request of `numel` rounds up to. */
    static int64_t bucketCapacity(int64_t numel);

  private:
    MemoryPool();
    ~MemoryPool();

    MemoryPool(const MemoryPool &) = delete;
    MemoryPool &operator=(const MemoryPool &) = delete;

    struct Impl;
    Impl *impl_;
};

/** RAII pool disable (tests compare pool-on vs pool-off behaviour). */
class PoolDisableScope
{
  public:
    PoolDisableScope();
    ~PoolDisableScope();

    PoolDisableScope(const PoolDisableScope &) = delete;
    PoolDisableScope &operator=(const PoolDisableScope &) = delete;

  private:
    bool prev_;
};

/**
 * Per-request arena scoping for serving: while alive, the thread's
 * shard keeps recycling blocks request-to-request; on destruction, a
 * shard that grew past `keepBytes` is flushed whole to the global
 * lists, so an unusually large request cannot permanently fatten its
 * slot's cache (the fragmentation in-flight requests would otherwise
 * inflict on each other). Normally-sized requests — shard at or under
 * the budget — keep their whole working set local for the next
 * request on the slot.
 */
class RequestArenaScope
{
  public:
    explicit RequestArenaScope(uint64_t keep_bytes = 1ull << 26);
    ~RequestArenaScope();

    RequestArenaScope(const RequestArenaScope &) = delete;
    RequestArenaScope &operator=(const RequestArenaScope &) = delete;

  private:
    uint64_t keepBytes_;
};

} // namespace tensor
} // namespace mmbench

#endif // MMBENCH_TENSOR_POOL_HH
