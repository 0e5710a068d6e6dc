/**
 * @file
 * StagePipe: a one-request adapter over runGraph, kept only for
 * callers that still compile against it (the benchmark's output check
 * and its traced pass). Serving and new code call
 * MultiModalWorkload::forwardGraph.
 *
 * execute() runs the request's graph sequentially on the calling
 * thread with the plan given at construction, so its output is bitwise
 * identical to forwardGraph's, and any number of threads may call it
 * at once.
 */

#ifndef MMBENCH_PIPELINE_STAGEPIPE_HH
#define MMBENCH_PIPELINE_STAGEPIPE_HH

#include <string>

#include "pipeline/graph.hh"
#include "pipeline/memplan.hh"

namespace mmbench {
namespace pipeline {

/** One request submitted to the pipe. */
struct PipeRequest
{
    /** Input batch (not owned; must outlive the execute() call). */
    const data::Batch *batch = nullptr;
    /** Trace tag for the request's node scopes ("" = none). */
    std::string tag;
};

/** What one request produced. */
struct PipeCompletion
{
    autograd::Var output; ///< the head node's slot value
};

class StagePipe
{
  public:
    /**
     * Wrap one workload's graph. `plan` is the buffer-reuse plan to
     * execute (any policy's plan is valid under the sequential run),
     * or nullptr for no planned releases. `stashSlots` is
     * MultiModalWorkload::stashSlots(). The graph and plan must
     * outlive the pipe.
     */
    StagePipe(const StageGraph &graph, const MemoryPlan *plan,
              size_t stashSlots);

    /**
     * Run one request's graph on the calling thread and return the
     * head node's output. Grad must be disabled (serving is
     * inference-only).
     */
    PipeCompletion execute(const PipeRequest &request) const;

  private:
    const StageGraph &graph_;
    const MemoryPlan *plan_;
    size_t stashSlots_;
    size_t sinkId_ = 0; ///< the head node (the graph's single sink)
};

} // namespace pipeline
} // namespace mmbench

#endif // MMBENCH_PIPELINE_STAGEPIPE_HH
