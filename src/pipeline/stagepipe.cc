#include "pipeline/stagepipe.hh"

#include "autograd/var.hh"
#include "core/logging.hh"

namespace mmbench {
namespace pipeline {

/**
 * One in-flight request. Guarded by StagePipe::mu_ except where noted:
 * `ctx` is written only by the task currently executing one of the
 * job's nodes; the per-job wave barrier guarantees tasks of one wave
 * never write the same slot, and cross-wave visibility rides on mu_
 * (every task start/finish passes through the lock).
 */
struct StagePipe::Job
{
    /** The request's node settings: tag, drop mask, faults, plan. */
    ScheduleOptions options;
    int priority = 0;
    ExecContext ctx;
    uint64_t seq = 0;   ///< submission order (FIFO within priority)
    int wave = -1;      ///< current graph level
    std::vector<size_t> waveIds; ///< live node ids of the current wave
    size_t nextTask = 0; ///< next unstarted index into waveIds
    size_t running = 0;  ///< started-but-unfinished tasks of the wave
    bool failed = false; ///< a task hit an injected failure
    bool done = false;   ///< job retired (owner may collect)
    /** Captured fault identity (valid when failed). */
    std::string faultNode;
    int injectedSlowdowns = 0;
    int prunedNodes = 0;

    /** Intrusive ready-list links (guarded by mu_). */
    Job *readyPrev = nullptr;
    Job *readyNext = nullptr;
    bool inReady = false;
};

StagePipe::StagePipe(const StageGraph &graph, const MemoryPlan *plan,
                     size_t stash_slots)
    : graph_(graph), plan_(plan), stashSlots_(stash_slots)
{
    MM_ASSERT(!plan_ || plan_->releaseAfter.size() == graph_.size(),
              "memory plan built for a different graph");
    levels_.reserve(static_cast<size_t>(graph_.numLevels()));
    for (int level = 0; level < graph_.numLevels(); ++level)
        levels_.push_back(graph_.levelNodes(level));
    const std::vector<size_t> sinks = graph_.sinks();
    MM_ASSERT(sinks.size() == 1, "stage graph must have one sink");
    sinkId_ = sinks[0];
}

int
StagePipe::activeJobs() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return active_;
}

void
StagePipe::readyInsert(Job *job)
{
    MM_ASSERT(!job->inReady, "ready-list double insert");
    // Rank: priority desc, then FIFO by seq. New jobs carry the
    // highest seq of their priority, so scanning from the tail makes
    // the common insert O(1); re-inserts after a wave keep the job's
    // original seq, so the scan restores its FIFO slot exactly as the
    // old full scan would have picked it.
    Job *at = readyTail_;
    while (at != nullptr &&
           (at->priority < job->priority ||
            (at->priority == job->priority && at->seq > job->seq)))
        at = at->readyPrev;
    job->readyPrev = at;
    job->readyNext = at ? at->readyNext : readyHead_;
    if (job->readyNext)
        job->readyNext->readyPrev = job;
    else
        readyTail_ = job;
    if (at)
        at->readyNext = job;
    else
        readyHead_ = job;
    job->inReady = true;
}

void
StagePipe::readyRemove(Job *job)
{
    if (!job->inReady)
        return;
    if (job->readyPrev)
        job->readyPrev->readyNext = job->readyNext;
    else
        readyHead_ = job->readyNext;
    if (job->readyNext)
        job->readyNext->readyPrev = job->readyPrev;
    else
        readyTail_ = job->readyPrev;
    job->readyPrev = job->readyNext = nullptr;
    job->inReady = false;
}

void
StagePipe::advanceWave(Job *job)
{
    for (;;) {
        if (job->failed ||
            job->wave + 1 >= static_cast<int>(levels_.size())) {
            job->done = true;
            return;
        }
        ++job->wave;
        job->waveIds.clear();
        for (size_t id :
             levels_[static_cast<size_t>(job->wave)]) {
            if (prunedByDropMask(graph_.node(id), job->options.dropMask))
                ++job->prunedNodes;
            else
                job->waveIds.push_back(id);
        }
        if (!job->waveIds.empty()) {
            job->nextTask = 0;
            job->running = 0;
            return;
        }
        // Every node of the wave was pruned: fall through to the next.
    }
}

void
StagePipe::runTask(Job *job, std::unique_lock<std::mutex> &lock)
{
    const size_t node_id = job->waveIds[job->nextTask++];
    ++job->running;
    if (job->nextTask >= job->waveIds.size())
        readyRemove(job); // wave fully started: nothing left to pick
    lock.unlock();

    // Serving is inference-only: grad stays off on whichever slot runs
    // the task. The node timeline is not kept on the serve hot path.
    NodeRun run;
    bool slowed = false;
    bool faulted = false;
    std::string fault_node;
    try {
        slowed = runNode(node_id, graph_.node(node_id), job->ctx,
                         job->options, /*grad_enabled=*/false, run);
    } catch (const FaultError &e) {
        faulted = true;
        fault_node = e.node();
    }

    lock.lock();
    if (slowed)
        ++job->injectedSlowdowns;
    if (faulted) {
        // Abort the job: no new tasks start; already-running tasks of
        // this wave drain, then the job retires failed and the owner
        // rethrows. First failure wins (matches sequential order only
        // when one node of a wave faults, which is how plans are
        // written; any failure fails the whole request regardless).
        if (!job->failed) {
            job->failed = true;
            job->faultNode = fault_node;
        }
        job->nextTask = job->waveIds.size();
        readyRemove(job); // aborting: unstarted tasks never run
    }
    --job->running;
    if (job->nextTask >= job->waveIds.size() && job->running == 0) {
        advanceWave(job);
        if (!job->done)
            readyInsert(job);
        // Wave boundary: new tasks became runnable (or the job
        // retired and its owner must wake) — either way, waiters
        // need a fresh look.
        cv_.notify_all();
    }
}

PipeCompletion
StagePipe::execute(const PipeRequest &request)
{
    MM_ASSERT(request.batch != nullptr, "pipe request without a batch");
    MM_ASSERT(!autograd::GradMode::enabled(),
              "StagePipe serves inference only (grad must be disabled)");

    Job job;
    job.options.tag = request.tag;
    job.options.plan = plan_;
    job.options.dropMask = request.dropMask;
    job.options.faults = request.faults;
    job.options.faultRequest = request.faultRequest;
    job.options.faultAttempt = request.faultAttempt;
    job.priority = request.priority;
    job.ctx.batch = request.batch;
    job.ctx.slots.assign(graph_.size(), autograd::Var());
    job.ctx.stash.assign(stashSlots_, autograd::Var());

    std::unique_lock<std::mutex> lock(mu_);
    job.seq = nextSeq_++;
    advanceWave(&job);
    ++active_;
    if (!job.done) {
        readyInsert(&job);
        cv_.notify_all(); // idle slots can help immediately
    }

    while (!job.done) {
        if (readyHead_)
            runTask(readyHead_, lock); // unlocks while the body runs
        else
            cv_.wait(lock);
    }
    --active_;
    lock.unlock();

    if (job.failed)
        throw FaultError(job.faultNode, request.faultRequest,
                         request.faultAttempt);

    PipeCompletion completion;
    completion.output = job.ctx.slots[sinkId_];
    completion.injectedSlowdowns = job.injectedSlowdowns;
    completion.prunedNodes = job.prunedNodes;
    return completion;
}

} // namespace pipeline
} // namespace mmbench
