/**
 * @file
 * Scheduler: executes a StageGraph under a pluggable policy.
 *
 * `sequential` runs nodes on the calling thread in insertion order and
 * bit-exactly reproduces the pre-graph monolithic forward pass —
 * including the exact trace-event stream, so determinism tests and the
 * sim replay see no difference. `parallel` executes each dependency
 * level as one wave on the core worker pool: independent modality
 * encoders run concurrently (each internally serial, so outputs stay
 * bitwise identical to sequential), which is the inter-modality
 * parallelism the paper's sync-stall study (Fig. 11) leaves on the
 * table.
 *
 * Each executed node can capture its own trace segment
 * (per-node RecordingSink) plus host start/end timestamps — the node
 * timeline. mergeNodeTraces() concatenates the segments in node-id
 * (i.e. sequential) order so the sim device replay consumes one
 * canonical stream regardless of the policy that produced it.
 */

#ifndef MMBENCH_PIPELINE_SCHEDULER_HH
#define MMBENCH_PIPELINE_SCHEDULER_HH

#include <string>
#include <vector>

#include "pipeline/faults.hh"
#include "pipeline/graph.hh"
#include "trace/sink.hh"

namespace mmbench {
namespace pipeline {

struct MemoryPlan; // memplan.hh

/** How ready nodes are mapped onto threads. */
enum class SchedPolicy
{
    Sequential, ///< insertion order on the calling thread
    Parallel,   ///< dependency levels as waves on the worker pool
};

const char *schedPolicyName(SchedPolicy policy);
bool tryParseSchedPolicy(const std::string &name, SchedPolicy *policy);

/** Execution options of one graph run. */
struct ScheduleOptions
{
    SchedPolicy policy = SchedPolicy::Sequential;
    /**
     * Record each node's trace events into its own NodeRun sink.
     * Without capture, events flow to the ambient thread-local sink —
     * which only the calling thread has, so the parallel policy drops
     * worker-side events (same rule as the core parallel runtime).
     */
    bool captureTraces = false;
    /** Ambient tag (fusion implementation) set around every node. */
    std::string tag;
    /**
     * Buffer-reuse plan (memplan.hh) to execute, or nullptr for the
     * historical keep-everything behaviour. Slot drops run inside the
     * releasing node's trace capture, so the canonical merged stream
     * carries the frees at the same position for every policy. The
     * plan must have been computed for a policy at least as
     * conservative as the one actually run (a Parallel plan is valid
     * under Sequential; the reverse is not).
     */
    const MemoryPlan *plan = nullptr;
    /**
     * Let MultiModalWorkload::forwardGraph fill `plan` from its cached
     * per-policy plans when none is given. Off = run without
     * graph-level buffer reuse (tests compare both behaviours).
     */
    bool planMemory = true;
    /**
     * Bitmask of dropped modalities: bit m set = modality m is missing
     * from this execution's request. The scheduler prunes (skips) every
     * node carrying that modality id — the dead encoder subtree — and
     * the fusion node zero-imputes the missing feature. 0 = all
     * modalities present (the historical behaviour, zero-cost).
     */
    uint32_t dropMask = 0;
    /**
     * Fault-injection plan consulted per executed node, or nullptr for
     * no injection. Requires the sequential policy (injected failures
     * throw FaultError through the scheduler, which must not cross the
     * worker pool). Decisions key on (faultRequest, node name,
     * faultAttempt), so they are a pure function of the spec + seed.
     */
    const FaultPlan *faults = nullptr;
    int faultRequest = 0; ///< request id stamped on fault decisions
    int faultAttempt = 0; ///< retry attempt stamped on fault decisions
};

/** What executing one node produced. */
struct NodeRun
{
    double startUs = 0.0; ///< host clock at body entry
    double endUs = 0.0;   ///< host clock at body exit
    trace::RecordingSink trace; ///< captured events (captureTraces only)

    double hostUs() const { return endUs - startUs; }
};

/** The node timeline of one graph execution. */
struct GraphRun
{
    std::vector<NodeRun> nodes; ///< indexed by node id
    double totalUs = 0.0;       ///< host wall clock of the whole run
    /** Slow faults injected into this execution (options.faults). */
    int injectedSlowdowns = 0;
    /** Nodes skipped because their modality was dropped. */
    int prunedNodes = 0;
};

/**
 * True when the node is pruned from an execution under `drop_mask`:
 * its modality was dropped from the request, so the whole
 * per-modality subtree (preprocess + encoder) is dead. Fusion/head
 * nodes carry no modality and always run; the fusion body
 * zero-imputes the missing feature.
 */
bool prunedByDropMask(const StageNode &node, uint32_t drop_mask);

/**
 * Execute node `id` on the calling thread: the one routine runGraph
 * runs every node through, under either policy. In order, it throws
 * FaultError when options.faults fails the node (before any work);
 * installs the ambient context the monolithic forward used to set up
 * (grad off unless `grad_enabled`, options.tag, the node's stage and
 * modality, and with options.captureTraces a sink recording into
 * out.trace); stamps out.startUs, runs the body and stamps out.endUs;
 * busy-extends an injected straggler (capped at kMaxInjectedStallUs)
 * and re-stamps out.endUs; and drops the slots options.plan releases
 * after this node while those scopes are still installed. Returns
 * true when a straggler fault fired. Allocates nothing per node.
 */
bool runNode(size_t id, const StageNode &node, ExecContext &ctx,
             const ScheduleOptions &options, bool grad_enabled,
             NodeRun &out);

/**
 * Execute every node of the graph. ctx.slots is resized to the node
 * count; on return, each node's output sits in its slot. When grad
 * recording is enabled on the calling thread the policy silently
 * degrades to sequential (the tape is built single-threaded; the
 * parallel policy is an inference-serving feature).
 */
GraphRun runGraph(const StageGraph &graph, ExecContext &ctx,
                  const ScheduleOptions &options);

/**
 * Per-node boundaries into a merged trace: node i's kernels are
 * [kernelStart[i], kernelStart[i+1]) in the merged kernel vector, and
 * likewise for runtime ops.
 */
struct NodeTraceIndex
{
    std::vector<size_t> kernelStart;  ///< size nodes+1
    std::vector<size_t> runtimeStart; ///< size nodes+1
};

/**
 * Concatenate the per-node captured traces in node-id order into one
 * stream. Because node ids are a topological (sequential-schedule)
 * order, the merged stream is identical to what the monolithic
 * forward emitted — the sim replay of a parallel run therefore
 * matches the sequential one exactly. The optional index maps replay
 * results back to nodes.
 */
trace::RecordingSink mergeNodeTraces(const GraphRun &run,
                                     NodeTraceIndex *index = nullptr);

} // namespace pipeline
} // namespace mmbench

#endif // MMBENCH_PIPELINE_SCHEDULER_HH
