/**
 * @file
 * Graph-level memory planning: liveness analysis over a StageGraph.
 *
 * A node's output slot stays referenced by the ExecContext until the
 * run ends, even though its last consumer may have finished long
 * before — every encoder feature map survives fusion, every fused
 * representation survives the head. The planner computes, for each
 * node output and a given schedule policy, the node after which the
 * slot can be dropped, and pre-assigns logical buffer slots by linear
 * scan so the steady-state working set is the liveness watermark, not
 * the sum of all outputs. The scheduler performs the drops inside the
 * releasing node's trace capture: the freed storage returns to the
 * MemoryPool arena mid-run (feeding free-list reuse), and the free
 * event lands at the same canonical position in the node timeline for
 * every policy, keeping sequential and parallel replays identical.
 *
 * Parallel-policy safety: a slot may only be released by a node when
 * every other consumer finished in a strictly earlier dependency
 * level. Consumers sharing the releasing node's level run concurrently
 * with it, so such slots (and graph sinks, which nothing consumes)
 * are released only when the run's ExecContext dies. A plan is valid
 * under any policy at least as conservative as the one it was built
 * for, so a parallel-policy plan may run sequentially.
 */

#ifndef MMBENCH_PIPELINE_MEMPLAN_HH
#define MMBENCH_PIPELINE_MEMPLAN_HH

#include <cstddef>
#include <vector>

#include "pipeline/graph.hh"
#include "pipeline/scheduler.hh"

namespace mmbench {
namespace pipeline {

/** The pre-computed buffer-reuse schedule of one (graph, policy). */
struct MemoryPlan
{
    /**
     * releaseAfter[n] = slot ids to drop right after node n's body
     * returns. Every listed slot's consumers are all ordered at or
     * before n under the planned policy.
     */
    std::vector<std::vector<size_t>> releaseAfter;

    /**
     * Logical buffer slot assigned to each node's output by linear
     * scan over the sequential schedule: outputs whose live ranges
     * never overlap share a slot. Purely an accounting view (physical
     * reuse happens through the arena free lists); numBufferSlots vs
     * graph size is the planner's reuse headroom.
     */
    std::vector<int> bufferSlot;
    int numBufferSlots = 0;

    /** Slot ids never released mid-run (sinks + same-level conflicts). */
    std::vector<size_t> liveAtEnd;

    /** Total mid-run releases the plan schedules. */
    size_t plannedReleases() const
    {
        size_t n = 0;
        for (const auto &ids : releaseAfter)
            n += ids.size();
        return n;
    }
};

/**
 * Run liveness analysis over the graph for one schedule policy.
 * Deterministic: depends only on the graph structure and policy.
 */
MemoryPlan planMemory(const StageGraph &graph, SchedPolicy policy);

} // namespace pipeline
} // namespace mmbench

#endif // MMBENCH_PIPELINE_MEMPLAN_HH
