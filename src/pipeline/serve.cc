#include "pipeline/serve.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "core/clock.hh"
#include "core/logging.hh"
#include "core/parallel.hh"
#include "core/rng.hh"
#include "core/string_utils.hh"

namespace mmbench {
namespace pipeline {

const char *
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Closed: return "closed";
      case ArrivalKind::Poisson: return "poisson";
      case ArrivalKind::Fixed: return "fixed";
    }
    MM_PANIC("invalid arrival kind");
}

bool
tryParseArrivalKind(const std::string &name, ArrivalKind *kind)
{
    const std::string n = toLower(name);
    if (n == "closed") {
        *kind = ArrivalKind::Closed;
    } else if (n == "poisson") {
        *kind = ArrivalKind::Poisson;
    } else if (n == "fixed") {
        *kind = ArrivalKind::Fixed;
    } else {
        return false;
    }
    return true;
}

bool
isOpenLoop(ArrivalKind kind)
{
    return kind != ArrivalKind::Closed;
}

const char *
requestOutcomeName(RequestOutcome outcome)
{
    switch (outcome) {
      case RequestOutcome::Ok: return "ok";
      case RequestOutcome::Degraded: return "degraded";
      case RequestOutcome::Shed: return "shed";
      case RequestOutcome::Timeout: return "timeout";
      case RequestOutcome::Failed: return "failed";
    }
    MM_PANIC("invalid request outcome");
}

std::string
validateServeOptions(int total, const ServeLoopOptions &options)
{
    if (total < 0)
        return "--requests must be >= 0";
    if (options.inflight < 1)
        return "--inflight must be >= 1";
    if (options.maxBatch < 1)
        return "--max-batch must be >= 1";
    if (options.batchWaitUs < 0.0)
        return "--batch-wait-us must be >= 0";
    if (options.queueCap < 0)
        return "--queue-cap must be >= 0";
    if (options.deadlineUs < 0.0)
        return "--deadline-ms must be >= 0";
    if (isOpenLoop(options.arrival)) {
        if (!(options.rateRps > 0.0))
            return strfmt("--arrival %s needs an offered rate: pass "
                          "--rate R (requests/second, > 0)",
                          arrivalKindName(options.arrival));
        // The hold only runs while a batch is below maxBatch.
        if (options.batchWaitUs > 0.0 && options.maxBatch == 1)
            return "--batch-wait-us holds an under-filled batch, but at "
                   "--max-batch 1 every batch is full; pass --max-batch "
                   "N > 1";
        return "";
    }
    // A closed loop has no queue to batch from, hold, prioritize or
    // bound, and no arrival schedule for a rate to set; a rate would
    // still be recorded, fabricating a flat rate-vs-latency curve.
    const char *open_loop = "; add --arrival poisson or --arrival fixed";
    if (options.maxBatch > 1)
        return std::string("--max-batch batches queued requests, which "
                           "only exist under open-loop arrivals") +
               open_loop;
    if (options.batchWaitUs > 0.0)
        return std::string("--batch-wait-us holds an under-filled "
                           "open-loop batch") + open_loop;
    if (options.classes != nullptr && !options.classes->empty())
        return std::string("--classes schedules the open-loop admission "
                           "queue") + open_loop;
    if (options.rateRps > 0.0)
        return std::string("--rate sets the open-loop offered rate, which "
                           "a closed loop ignores") + open_loop;
    if (options.queueCap > 0)
        return std::string("--queue-cap bounds the open-loop admission "
                           "queue, which a closed loop lacks") + open_loop;
    return "";
}

std::vector<double>
arrivalScheduleUs(ArrivalKind kind, int requests, double rate_rps,
                  uint64_t seed)
{
    if (kind == ArrivalKind::Closed)
        return {};
    MM_ASSERT(rate_rps > 0.0, "open-loop arrivals need a rate > 0");
    MM_ASSERT(requests >= 0, "negative request count");

    std::vector<double> schedule;
    schedule.reserve(static_cast<size_t>(requests));
    const double mean_gap_us = 1e6 / rate_rps;
    if (kind == ArrivalKind::Fixed) {
        for (int i = 0; i < requests; ++i)
            schedule.push_back(static_cast<double>(i) * mean_gap_us);
        return schedule;
    }
    // Poisson process: i.i.d. exponential gaps with mean 1/rate,
    // via inverse-CDF of the seeded deterministic Rng stream.
    Rng rng(seed);
    double t = 0.0;
    for (int i = 0; i < requests; ++i) {
        t += -std::log(1.0 - rng.uniform()) * mean_gap_us;
        schedule.push_back(t);
    }
    return schedule;
}

namespace {

/**
 * Terminal outcome of a serviced request (shed requests never reach
 * here). Precedence: Failed > Timeout > Degraded > Ok — a failed
 * request wasted its budget no matter when it finished, and a late
 * degraded answer still missed its deadline.
 */
RequestOutcome
outcomeFor(const ServiceResult &sr, double latency_us, double deadline_us)
{
    if (sr.failed)
        return RequestOutcome::Failed;
    if (deadline_us > 0.0 && latency_us > deadline_us)
        return RequestOutcome::Timeout;
    if (sr.degraded)
        return RequestOutcome::Degraded;
    return RequestOutcome::Ok;
}

/** Fold the per-request outcomes into the lifecycle counters. */
void
tallyOutcomes(ServeLoopResult *result)
{
    for (const RequestOutcome o : result->outcomes) {
        switch (o) {
          case RequestOutcome::Ok: ++result->ok; break;
          case RequestOutcome::Degraded: ++result->degraded; break;
          case RequestOutcome::Shed: ++result->shed; break;
          case RequestOutcome::Timeout: ++result->timeouts; break;
          case RequestOutcome::Failed: ++result->failed; break;
        }
    }
}

/**
 * Closed loop: an atomic next-request cursor hands out exactly one
 * request per pull. This replaces dispatching through parallelFor's
 * range chunking, which handed each slot a *block* of requests (range
 * / (4 * threads)) and serialized everything inside the block —
 * skewing per-request concurrency and the tail percentiles it feeds.
 *
 * No queue means nothing to shed: requests can only end ok, degraded,
 * timed out, or failed.
 */
void
runClosedLoop(int total, const ServeLoopOptions &options,
              const ServiceFn &service, ServeLoopResult *result)
{
    std::atomic<int> cursor{0};
    std::atomic<int> calls{0};
    std::atomic<int> retries{0};
    std::atomic<int> faults{0};
    const double t0 = core::nowUs();
    core::parallelFor(0, options.inflight, 1, [&](int64_t, int64_t) {
        // The slot body drains the cursor; the parallelFor range only
        // determines how many slots run concurrently.
        for (;;) {
            const int i = cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= total)
                return;
            ServiceCall call;
            call.first = i;
            call.count = 1;
            call.ids.assign(1, i);
            const double start = core::nowUs() - t0;
            const ServiceResult sr = service(call);
            const double end = core::nowUs() - t0;
            RequestTiming &t = result->requests[static_cast<size_t>(i)];
            t.arrivalUs = start; // no queue in a closed loop
            t.startUs = start;
            t.endUs = end;
            result->outcomes[static_cast<size_t>(i)] =
                outcomeFor(sr, end - start, options.deadlineUs);
            calls.fetch_add(1, std::memory_order_relaxed);
            retries.fetch_add(sr.retries, std::memory_order_relaxed);
            faults.fetch_add(sr.faultsInjected,
                             std::memory_order_relaxed);
        }
    });
    result->wallUs = core::nowUs() - t0;
    result->serviceCalls = calls.load();
    result->retries = retries.load();
    result->faultsInjected = faults.load();
}

/**
 * Open loop: requests become available at their scheduled arrival
 * instants and are admitted into per-class FIFO queues; slots batch
 * up to `maxBatch` requests from the highest-priority non-empty queue
 * (holding an under-filled batch up to `batchWaitUs`) or wait for the
 * next arrival. Classless streams run a single queue, so dequeues stay
 * contiguous FIFO runs — the historical dispatcher exactly.
 *
 * Waiting is handed to a single designated slot: exactly one idle slot
 * owns the next-arrival timer (sleeping on the condition variable with
 * a timeout, then yield-spinning the final stretch for dispatch
 * precision) while every other idle slot parks on the condition
 * variable at zero CPU cost. The previous design had every idle slot
 * spin-yield toward the same arrival — a thundering herd that burned
 * (inflight - 1) cores doing nothing and skewed service measurements
 * at low load. Liveness: the timer owner wakes one parked slot after
 * dequeuing, every service completion wakes one more (arrived backlog
 * may now be visible), and stream end broadcasts. A slot holding an
 * under-filled batch owns its own timed wait — the popped members are
 * private to it, so other slots keep dispatching the rest of the queue
 * meanwhile.
 *
 * When shedding is on, dequeue is also where requests die: queue heads
 * past their (per-class) deadline and — when the total backlog exceeds
 * the queue cap — the oldest requests of the lowest-priority backlog
 * are shed before any service time is spent on them.
 */
void
runOpenLoop(int total, const ServeLoopOptions &options,
            const std::vector<double> &arrival, const ServiceFn &service,
            ServeLoopResult *result)
{
    const ClassPlan *plan = options.classes;
    const bool classed = plan != nullptr && !plan->empty();
    const size_t nclasses = classed ? plan->size() : 1;

    // Deterministic request labels + per-class deadlines, precomputed
    // before the clock starts (pure functions of spec + seed).
    std::vector<int> cls(static_cast<size_t>(total), 0);
    if (classed) {
        for (int i = 0; i < total; ++i)
            cls[static_cast<size_t>(i)] = plan->classOf(i, options.seed);
        result->classIds = cls;
    }
    std::vector<double> deadline(nclasses, options.deadlineUs);
    bool any_deadline = options.deadlineUs > 0.0;
    if (classed) {
        for (size_t c = 0; c < nclasses; ++c) {
            deadline[c] = plan->deadlineUsFor(c, options.deadlineUs);
            any_deadline = any_deadline || deadline[c] > 0.0;
        }
    }
    // Dequeue order: priority descending, declaration order breaking
    // ties. Shedding victimizes the reverse of this order.
    std::vector<size_t> order(nclasses);
    for (size_t c = 0; c < nclasses; ++c)
        order[c] = c;
    if (classed) {
        std::stable_sort(order.begin(), order.end(),
                         [&](size_t a, size_t b) {
                             return plan->at(a).priority >
                                    plan->at(b).priority;
                         });
    }

    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::vector<int>> queues(nclasses); // FIFO, guarded by mu
    std::vector<size_t> heads(nclasses, 0); // consumed prefix per queue
    size_t ingest = 0;       // next arrival not yet admitted
    int queued = 0;          // total backlog across queues
    int handed_out = 0;      // dispatched + shed
    bool has_waiter = false; // a slot owns the next-arrival timer
    double mean_service = 0.0; // EWMA of service spans, guarded by mu
    std::atomic<int> calls{0};
    std::atomic<int> retries{0};
    std::atomic<int> faults{0};
    const double t0 = core::nowUs();

    // Caller holds mu. Admit every request due by `now` into its class
    // queue (queues only ever grow here, so "consumed prefix" heads
    // never invalidate).
    const auto admit = [&](double now) {
        while (ingest < static_cast<size_t>(total) &&
               arrival[ingest] <= now) {
            queues[static_cast<size_t>(cls[ingest])].push_back(
                static_cast<int>(ingest));
            ++queued;
            ++ingest;
        }
    };
    const auto queueSize = [&](size_t c) {
        return queues[c].size() - heads[c];
    };
    const auto popFront = [&](size_t c) {
        const int id = queues[c][heads[c]++];
        --queued;
        ++handed_out;
        return id;
    };
    // Caller holds mu. Shed one queued request without servicing it;
    // its "span" collapses to the shed instant so latencyUs() reports
    // how long it waited before being dropped.
    const auto shedOne = [&](size_t c, double now) {
        const int id = popFront(c);
        RequestTiming &t = result->requests[static_cast<size_t>(id)];
        t.arrivalUs = arrival[static_cast<size_t>(id)];
        t.startUs = now;
        t.endUs = now;
        result->outcomes[static_cast<size_t>(id)] = RequestOutcome::Shed;
    };

    core::parallelFor(0, options.inflight, 1, [&](int64_t, int64_t) {
        std::unique_lock<std::mutex> lock(mu);
        for (;;) {
            if (handed_out >= total) {
                cv.notify_all(); // release every parked slot
                return;
            }
            double now = core::nowUs() - t0;
            admit(now);
            if (options.shedding) {
                // Deadline-expired queue heads: servicing them is pure
                // waste, the answer would be late regardless.
                if (any_deadline) {
                    for (size_t c = 0; c < nclasses; ++c) {
                        if (!(deadline[c] > 0.0))
                            continue;
                        while (queueSize(c) > 0 &&
                               arrival[static_cast<size_t>(
                                   queues[c][heads[c]])] +
                                       deadline[c] <
                                   now)
                            shedOne(c, now);
                    }
                }
                // Bounded admission: drop-oldest until the backlog
                // fits the cap, victimizing the lowest-priority class
                // with waiting requests first (its oldest arrival has
                // burned the most deadline budget already).
                if (options.queueCap > 0) {
                    while (queued > options.queueCap) {
                        for (size_t i = nclasses; i-- > 0;) {
                            const size_t c = order[i];
                            if (queueSize(c) > 0) {
                                shedOne(c, now);
                                break;
                            }
                        }
                    }
                }
                if (handed_out >= total)
                    continue; // loop top handles termination
            }
            // Highest-priority class with waiting requests.
            size_t pick = nclasses;
            for (size_t c : order) {
                if (queueSize(c) > 0) {
                    pick = c;
                    break;
                }
            }
            if (pick == nclasses) {
                // Nothing queued: everything left is a future arrival.
                const double due = arrival[ingest];
                if (has_waiter) {
                    // Another slot owns the timer: park. Woken by the
                    // timer owner after its dequeue, by a completion,
                    // or by the end-of-stream broadcast.
                    cv.wait(lock);
                    continue;
                }
                has_waiter = true;
                const double wait_us = due - now;
                if (wait_us > 2000.0) {
                    // Sleep with a margin that absorbs OS timer
                    // overshoot; a notify (completion advancing the
                    // queue) ends the wait early, which is harmless —
                    // the loop re-derives the head and its due time.
                    cv.wait_for(
                        lock, std::chrono::duration<double, std::micro>(
                                  wait_us - 1500.0));
                } else {
                    // Final stretch: yield-spin off-lock so dispatch
                    // jitter (measured as queue wait) stays at
                    // scheduler-yield granularity.
                    lock.unlock();
                    while (core::nowUs() - t0 < due)
                        std::this_thread::yield();
                    lock.lock();
                }
                has_waiter = false;
                continue;
            }

            ServiceCall call;
            call.classId = static_cast<int>(pick);
            call.ids.push_back(popFront(pick));
            while (static_cast<int>(call.ids.size()) < options.maxBatch &&
                   queueSize(pick) > 0)
                call.ids.push_back(popFront(pick));
            if (static_cast<int>(call.ids.size()) < options.maxBatch &&
                options.batchWaitUs > 0.0) {
                // Hold the under-filled batch (its members are private
                // to this slot) up to batchWaitUs from formation start
                // for further same-class arrivals. Other slots keep
                // dispatching the rest of the queue meanwhile.
                const double formed = core::nowUs() - t0;
                const double hold_until = formed + options.batchWaitUs;
                for (;;) {
                    now = core::nowUs() - t0;
                    admit(now);
                    while (static_cast<int>(call.ids.size()) <
                               options.maxBatch &&
                           queueSize(pick) > 0)
                        call.ids.push_back(popFront(pick));
                    if (static_cast<int>(call.ids.size()) >=
                            options.maxBatch ||
                        now >= hold_until ||
                        ingest >= static_cast<size_t>(total))
                        break;
                    const double until =
                        std::min(arrival[ingest], hold_until);
                    if (until - now > 2000.0) {
                        cv.wait_for(
                            lock,
                            std::chrono::duration<double, std::micro>(
                                until - now - 1500.0));
                    } else {
                        lock.unlock();
                        while (core::nowUs() - t0 < until)
                            std::this_thread::yield();
                        lock.lock();
                    }
                }
                now = core::nowUs() - t0;
            }
            call.first = call.ids.front();
            call.count = static_cast<int>(call.ids.size());
            // Deadline pressure: the batch's remaining budget is below
            // the running mean service time, so a full-fidelity answer
            // would likely time out — hint the service fn to degrade.
            const double batch_deadline = deadline[pick];
            if (options.shedding && batch_deadline > 0.0 &&
                mean_service > 0.0) {
                const double remaining =
                    arrival[static_cast<size_t>(call.first)] +
                    batch_deadline - now;
                call.underPressure = remaining < mean_service;
            }
            if (handed_out < total)
                cv.notify_one(); // hand the queue to a parked slot
            lock.unlock();

            const double start = core::nowUs() - t0;
            const ServiceResult sr = service(call);
            const double end = core::nowUs() - t0;
            for (const int i : call.ids) {
                RequestTiming &t =
                    result->requests[static_cast<size_t>(i)];
                t.arrivalUs = arrival[static_cast<size_t>(i)];
                t.startUs = start;
                t.endUs = end;
                result->outcomes[static_cast<size_t>(i)] = outcomeFor(
                    sr, end - arrival[static_cast<size_t>(i)],
                    deadline[static_cast<size_t>(
                        cls[static_cast<size_t>(i)])]);
            }
            calls.fetch_add(1, std::memory_order_relaxed);
            retries.fetch_add(sr.retries, std::memory_order_relaxed);
            faults.fetch_add(sr.faultsInjected,
                             std::memory_order_relaxed);

            lock.lock();
            mean_service = mean_service == 0.0
                               ? end - start
                               : 0.7 * mean_service + 0.3 * (end - start);
            // Completion may have exposed arrived backlog to a parked
            // slot (the timer owner sleeps toward a later arrival).
            cv.notify_one();
        }
    });
    result->wallUs = core::nowUs() - t0;
    result->serviceCalls = calls.load();
    result->retries = retries.load();
    result->faultsInjected = faults.load();
}

} // namespace

ServeLoopResult
runServeLoop(int total, const ServeLoopOptions &options,
             const ServiceFn &service)
{
    const std::string err = validateServeOptions(total, options);
    MM_ASSERT(err.empty(), "invalid serve options: %s", err.c_str());

    ServeLoopResult result;
    result.requests.resize(static_cast<size_t>(total));
    result.outcomes.resize(static_cast<size_t>(total),
                           RequestOutcome::Ok);
    if (total == 0)
        return result;

    if (!isOpenLoop(options.arrival)) {
        runClosedLoop(total, options, service, &result);
    } else {
        const std::vector<double> arrival = arrivalScheduleUs(
            options.arrival, total, options.rateRps, options.seed);
        runOpenLoop(total, options, arrival, service, &result);
    }
    tallyOutcomes(&result);
    return result;
}

} // namespace pipeline
} // namespace mmbench
