/**
 * @file
 * Serving request queue and dispatcher.
 *
 * The load-generation half of serve mode: an arrival process turns
 * `--requests` into a deterministic schedule of arrival instants, and
 * runServeLoop() drives `inflight` request slots (the caller plus core
 * worker-pool threads) over that schedule, accounting queueing delay
 * (arrival -> service start) separately from service time (start ->
 * completion).
 *
 * Two families of arrival process:
 *
 *  - Closed loop (`ArrivalKind::Closed`): every slot pulls the next
 *    request the instant its current one finishes, through an atomic
 *    next-request cursor that hands out exactly one request per pull —
 *    never a block. There is no queue, so queue wait is zero by
 *    construction and per-request latency equals service time.
 *  - Open loop (`Poisson` / `Fixed`): requests arrive on their own
 *    schedule regardless of server progress — the measurement MLPerf
 *    Inference's server scenario makes. Arrived-but-unserved requests
 *    wait in FIFO queues (one per request class); latency = queue wait
 *    + service time. The dispatcher batches up to `maxBatch` queued
 *    requests into one service call from the backlog, and with
 *    `batchWaitUs` > 0 holds an under-filled batch up to that long
 *    for further arrivals.
 *
 * The schedule is generated from a seed before the clock starts, so a
 * fixed (kind, requests, rate, seed) tuple is bit-reproducible.
 *
 * Batch membership is final at dispatch: the slot that formed a batch
 * runs it as one unit through every stage of the graph.
 *
 * Request lifecycle (fault-tolerant serving): every request ends in an
 * explicit outcome. The dispatcher owns the queue-side half — bounded
 * admission (`queueCap`, oldest arrivals shed when the arrived backlog
 * exceeds the cap), per-request deadlines (`deadlineUs`, requests
 * already expired at dequeue are shed instead of wasting service on
 * them), and deadline-pressure detection (remaining budget below the
 * running mean service time) that lets the service function degrade
 * rather than shed. The service function owns the execution half —
 * fault injection, retry/backoff, modality-dropout degradation — and
 * reports it back through ServiceResult. With no deadline, no queue
 * cap and a service function that never fails, every path is inert and
 * the stream behaves exactly like the historical dispatcher.
 */

#ifndef MMBENCH_PIPELINE_SERVE_HH
#define MMBENCH_PIPELINE_SERVE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "pipeline/classes.hh"

namespace mmbench {
namespace pipeline {

/** How serve-mode requests are issued. */
enum class ArrivalKind
{
    Closed,  ///< next request issued when a slot frees (no queue)
    Poisson, ///< open loop, exponential inter-arrivals at `rate`
    Fixed,   ///< open loop, constant inter-arrival 1/rate
};

const char *arrivalKindName(ArrivalKind kind);
bool tryParseArrivalKind(const std::string &name, ArrivalKind *kind);

/** True for the open-loop kinds (Poisson / Fixed). */
bool isOpenLoop(ArrivalKind kind);

/**
 * Arrival instants in microseconds from stream start, one per request,
 * non-decreasing. Poisson draws exponential inter-arrival gaps with
 * mean 1/rate_rps from a generator seeded with `seed`; Fixed places
 * request i at exactly i/rate_rps. Deterministic: the same arguments
 * always produce the bit-identical schedule. Closed has no schedule
 * and returns an empty vector.
 */
std::vector<double> arrivalScheduleUs(ArrivalKind kind, int requests,
                                      double rate_rps, uint64_t seed);

/** When one request arrived, started service, and completed. */
struct RequestTiming
{
    double arrivalUs = 0.0; ///< offset from stream start
    double startUs = 0.0;   ///< service began (== arrival when closed)
    double endUs = 0.0;     ///< service completed

    double queueUs() const { return startUs - arrivalUs; }
    double serviceUs() const { return endUs - startUs; }
    double latencyUs() const { return endUs - arrivalUs; }
};

/** Load-generation parameters of one serve stream. */
struct ServeLoopOptions
{
    ArrivalKind arrival = ArrivalKind::Closed;
    double rateRps = 0.0; ///< open-loop offered rate, requests/second
    uint64_t seed = 42;   ///< arrival-schedule seed (open loop only)
    int inflight = 4;     ///< concurrent request slots
    /**
     * Open loop only: dequeue up to this many queued requests into one
     * service call. 1 = no batching. Closed loop always serves one
     * request per call.
     */
    int maxBatch = 1;
    /**
     * Open loop only: how long an under-filled batch may wait (from
     * formation start) for further same-class arrivals before
     * dispatching anyway. 0 = dispatch whatever the backlog holds.
     */
    double batchWaitUs = 0.0;
    /**
     * Request classes (SLO-aware scheduling), or nullptr/empty for the
     * classless stream. Classes label requests deterministically from
     * (seed, request id), set per-class deadlines, and make dequeue
     * priority-aware: the highest-priority non-empty queue is served
     * first, and queue-cap shedding victimizes the lowest-priority
     * backlog. Batches never mix classes. Open loop only.
     */
    const ClassPlan *classes = nullptr;
    /**
     * Open loop only: bound on the arrived-but-unserved backlog. When
     * an arrival would leave more than `queueCap` requests waiting, the
     * oldest waiting requests are shed (drop-oldest: they have burned
     * the most deadline budget and are the least likely to still make
     * it). 0 = unbounded queue (the historical behaviour).
     */
    int queueCap = 0;
    /**
     * Per-request deadline from its arrival instant, in microseconds.
     * A request still queued past its deadline is shed at dequeue; a
     * request that completes past it counts as a timeout (the work was
     * wasted). 0 = no deadline.
     */
    double deadlineUs = 0.0;
    /**
     * Master switch for load shedding (queueCap + expired-at-dequeue
     * shedding + deadline-pressure degradation hints). Off = every
     * request is serviced no matter how late — the collapse baseline
     * the fault_tolerance experiment compares against.
     */
    bool shedding = true;
};

/**
 * Terminal state of one request. Precedence when several apply:
 * Failed > Shed > Timeout > Degraded > Ok.
 */
enum class RequestOutcome : uint8_t
{
    Ok,       ///< served completely, within deadline (if any)
    Degraded, ///< served with reduced fidelity (dropped modalities)
    Shed,     ///< dropped by the dispatcher without being serviced
    Timeout,  ///< serviced, but completed past its deadline
    Failed,   ///< service gave up (fault persisted through all retries)
};

const char *requestOutcomeName(RequestOutcome outcome);

/** What the service function did with one coalesce group. */
struct ServiceResult
{
    bool failed = false;   ///< permanent failure (retries exhausted)
    bool degraded = false; ///< served with reduced fidelity
    int retries = 0;       ///< retry attempts consumed beyond the first
    int faultsInjected = 0; ///< faults the group absorbed (incl. retried)
};

/** What one serve stream measured. */
struct ServeLoopResult
{
    std::vector<RequestTiming> requests; ///< indexed by request id
    std::vector<RequestOutcome> outcomes; ///< indexed by request id
    /**
     * Class index per request (options.classes), or empty when the
     * stream ran classless.
     */
    std::vector<int> classIds;
    int serviceCalls = 0; ///< service invocations (< requests when batched)
    double wallUs = 0.0;  ///< stream start to last completion

    /** @name Lifecycle counters (sum = total requests) @{ */
    int ok = 0;
    int degraded = 0;
    int shed = 0;
    int timeouts = 0;
    int failed = 0;
    /** @} */
    int retries = 0;        ///< total retry attempts across all requests
    int faultsInjected = 0; ///< total faults absorbed across all requests
};

/**
 * One dispatched service batch. `ids` lists the member request ids in
 * dequeue (FIFO-within-class) order; `first`/`count` mirror ids[0] and
 * ids.size() — on a classless stream ids are a contiguous run, so
 * [first, first + count) remains an exact description. count > 1 only
 * when options.maxBatch allows it. `underPressure` is the dispatcher's
 * hint that the batch's deadline budget is smaller than the running
 * mean service time — the service function should degrade (serve a
 * cheaper variant) rather than burn the full cost and time out.
 */
struct ServiceCall
{
    int first = 0;
    int count = 1;
    bool underPressure = false;
    std::vector<int> ids; ///< member request ids (size == count)
    int classId = 0;      ///< index into options.classes (0 classless)
};

using ServiceFn = std::function<ServiceResult(const ServiceCall &)>;

/**
 * Reject invalid load-generation parameters: returns an empty string
 * when (total, options) describe a runnable stream, else a
 * human-readable reason. runServeLoop asserts this; RunSpec parsing
 * surfaces it as a CLI error before any model is built.
 */
std::string validateServeOptions(int total,
                                 const ServeLoopOptions &options);

/**
 * Run one serve stream of `total` requests on the core worker pool:
 * min(inflight, pool threads) slots execute `service` concurrently,
 * one coalesce group at a time. Blocks until every request reached a
 * terminal outcome; requests are dispatched strictly in id order.
 */
ServeLoopResult runServeLoop(int total, const ServeLoopOptions &options,
                             const ServiceFn &service);

} // namespace pipeline
} // namespace mmbench

#endif // MMBENCH_PIPELINE_SERVE_HH
