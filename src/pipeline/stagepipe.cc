#include "pipeline/stagepipe.hh"

#include "autograd/var.hh"
#include "core/logging.hh"

namespace mmbench {
namespace pipeline {

StagePipe::StagePipe(const StageGraph &graph, const MemoryPlan *plan,
                     size_t stash_slots)
    : graph_(graph), plan_(plan), stashSlots_(stash_slots)
{
    MM_ASSERT(!plan_ || plan_->releaseAfter.size() == graph_.size(),
              "memory plan built for a different graph");
    const std::vector<size_t> sinks = graph_.sinks();
    MM_ASSERT(sinks.size() == 1, "stage graph must have one sink");
    sinkId_ = sinks[0];
}

PipeCompletion
StagePipe::execute(const PipeRequest &request) const
{
    MM_ASSERT(request.batch != nullptr, "pipe request without a batch");
    MM_ASSERT(!autograd::GradMode::enabled(),
              "StagePipe serves inference only (grad must be disabled)");

    ExecContext ctx;
    ctx.batch = request.batch;
    ctx.stash.assign(stashSlots_, autograd::Var());
    ScheduleOptions options;
    options.tag = request.tag;
    options.plan = plan_;
    runGraph(graph_, ctx, options);

    PipeCompletion completion;
    completion.output = ctx.slots[sinkId_];
    return completion;
}

} // namespace pipeline
} // namespace mmbench
