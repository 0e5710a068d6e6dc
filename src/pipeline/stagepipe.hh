/**
 * @file
 * StagePipe: the cross-request stage-level serving scheduler.
 *
 * The historical serve path executes each request's StageGraph as one
 * indivisible unit on its slot — while request N runs its fusion and
 * head stages (one node per wave), every other slot's encoder-capable
 * capacity idles. StagePipe breaks requests into their graph waves and
 * lets the serving slots work-share node tasks across every in-flight
 * request: the encoder wave of request N+1 runs concurrently with the
 * fusion/head stages of request N, on exactly the thread budget the
 * serve loop already owns (no extra threads are created).
 *
 * Model: each slot calls execute() with its request. The call submits
 * a Job — an ExecContext plus a wave cursor over the graph's level
 * partition — and the calling slot becomes a generic task runner: it
 * repeatedly picks the highest-priority runnable node task from ANY
 * active job (its own or a neighbour's), parks on a condition variable
 * when nothing is runnable, and returns once its own job retires. A
 * job's waves execute with a per-job barrier (wave k starts only when
 * wave k-1 fully finished), which preserves the parallel-policy memory
 * plan's release rule and the graph's dependency order.
 *
 * Every node task runs through runNode (scheduler.hh), the same
 * routine runGraph uses: fault consultation before the body (an
 * injected failure aborts the job's remaining waves and execute()
 * rethrows FaultError on the owning slot, so the runner's retry loop
 * is untouched), grad disabled, tag/stage/modality trace scopes,
 * injected-straggler busy-extension and planned buffer releases after
 * the node; drop-mask pruning applies the scheduler's rule. Node
 * bodies are deterministic functions of their slot inputs, so outputs
 * are bitwise identical to unpipelined execution for any slot count.
 *
 * Task order is priority-aware (request-class priority, FIFO by
 * submission within a priority), so SLO classes keep their dequeue
 * order advantage inside the execution engine, not just in the
 * admission queue. Runnable jobs live on an intrusive ready list kept
 * in that order, so picking the next task is O(1) instead of a scan
 * over every in-flight job under the pipe lock. Batch membership is
 * final at dispatch: whatever batch the admission queue formed runs
 * all its waves as one job.
 */

#ifndef MMBENCH_PIPELINE_STAGEPIPE_HH
#define MMBENCH_PIPELINE_STAGEPIPE_HH

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "pipeline/faults.hh"
#include "pipeline/graph.hh"
#include "pipeline/memplan.hh"

namespace mmbench {
namespace pipeline {

/** One request submitted to the pipe. */
struct PipeRequest
{
    /** Input batch (not owned; must outlive the execute() call). */
    const data::Batch *batch = nullptr;
    /** Modalities dropped from this request (scheduler drop mask). */
    uint32_t dropMask = 0;
    /** Trace tag for the request's node scopes ("" = none). */
    std::string tag;
    /** Fault plan (nullptr/empty = fault-free) and its keying. */
    const FaultPlan *faults = nullptr;
    int faultRequest = 0;
    int faultAttempt = 0;
    /** Task priority (request-class priority; higher runs first). */
    int priority = 0;
};

/** What one retired request produced. */
struct PipeCompletion
{
    autograd::Var output;     ///< the head node's slot value
    int injectedSlowdowns = 0; ///< straggler faults absorbed
    int prunedNodes = 0;       ///< nodes skipped by the drop mask
};

class StagePipe
{
  public:
    /**
     * Build a pipe over one workload's graph. `plan` is the buffer-
     * reuse plan to execute per job (computed for the *parallel*
     * policy, whose wave structure matches the pipe's per-job
     * barriers), or nullptr for no planned releases. `stashSlots` is
     * MultiModalWorkload::stashSlots() — every job's ExecContext gets
     * that many stash entries. The graph, plan and any fault plan must
     * outlive the pipe.
     */
    StagePipe(const StageGraph &graph, const MemoryPlan *plan,
              size_t stashSlots);

    /**
     * Run one request through the graph, work-sharing node tasks with
     * every other slot currently inside execute(). Blocks until this
     * request retires; while blocked, the calling thread executes
     * runnable tasks of any active job. Grad must be disabled (serving
     * is inference-only). Throws FaultError when an injected failure
     * aborted the request (after its in-flight tasks drained), exactly
     * like the sequential scheduler.
     */
    PipeCompletion execute(const PipeRequest &request);

    /** Requests currently inside execute() (test introspection). */
    int activeJobs() const;

  private:
    struct Job;

    /** Advance `job` past finished waves; caller holds mu_. */
    void advanceWave(Job *job);
    /** Run one node task of `job`; called with `lock` held. */
    void runTask(Job *job, std::unique_lock<std::mutex> &lock);

    /** Link `job` into the ready list at its (priority, seq) rank. */
    void readyInsert(Job *job);
    /** Unlink `job` from the ready list (no-op when not linked). */
    void readyRemove(Job *job);

    const StageGraph &graph_;
    const MemoryPlan *plan_;
    size_t stashSlots_;
    /** Node ids per dependency level, precomputed once. */
    std::vector<std::vector<size_t>> levels_;
    size_t sinkId_ = 0; ///< the head node (the graph's single sink)

    mutable std::mutex mu_;
    std::condition_variable cv_;
    int active_ = 0; ///< requests inside execute()
    /** Intrusive ready list: priority desc, then FIFO by seq. */
    Job *readyHead_ = nullptr;
    Job *readyTail_ = nullptr;
    uint64_t nextSeq_ = 0;
};

} // namespace pipeline
} // namespace mmbench

#endif // MMBENCH_PIPELINE_STAGEPIPE_HH
