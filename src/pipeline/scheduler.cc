#include "pipeline/scheduler.hh"

#include <algorithm>
#include <optional>

#include "core/clock.hh"
#include "core/logging.hh"
#include "core/parallel.hh"
#include "core/string_utils.hh"
#include "pipeline/memplan.hh"
#include "trace/scope.hh"

namespace mmbench {
namespace pipeline {

bool
runNode(size_t id, const StageNode &node, ExecContext &ctx,
        const ScheduleOptions &options, bool grad_enabled, NodeRun &out)
{
    // Fault consultation happens before any work: an injected failure
    // costs the request nothing but the dispatch (the model never ran).
    if (options.faults && options.faults->failsAt(
                              options.faultRequest, node.name,
                              options.faultAttempt))
        throw FaultError(node.name, options.faultRequest,
                         options.faultAttempt);

    // Grad mode is re-asserted here because the node may execute on a
    // pool worker, whose thread-local grad flag the submitting
    // thread's NoGradGuard never touched.
    std::optional<autograd::NoGradGuard> no_grad;
    if (!grad_enabled)
        no_grad.emplace();
    std::optional<trace::ScopedSink> capture;
    if (options.captureTraces)
        capture.emplace(out.trace);
    trace::TagScope tag(options.tag);
    trace::StageScope stage(node.stage);
    std::optional<trace::ModalityScope> mod;
    if (node.modality != trace::kNoModality)
        mod.emplace(node.modality);

    out.startUs = core::nowUs();
    node.body(ctx);
    out.endUs = core::nowUs();

    // Injected straggler: busy-extend until the node's measured span
    // reaches `factor` times its real duration. Burning the slot's CPU
    // (rather than sleeping) models a node that is genuinely slower,
    // and keeps the span visible to every consumer of the timeline.
    bool slowed = false;
    if (options.faults) {
        const double factor = options.faults->slowdownFor(
            options.faultRequest, node.name, options.faultAttempt);
        if (factor > 1.0) {
            const double extension =
                std::min((out.endUs - out.startUs) * (factor - 1.0),
                         kMaxInjectedStallUs);
            const double target = out.endUs + extension;
            while (core::nowUs() < target) {
            }
            out.endUs = core::nowUs();
            slowed = true;
        }
    }

    // Planned buffer releases: drop slots whose last consumer is this
    // node, while this node's capture (and ambient scopes) are still
    // installed — the free events land in this node's trace segment,
    // at the same canonical position under every policy. The planner
    // guarantees no concurrently running node still reads these slots.
    if (options.plan) {
        for (size_t dead : options.plan->releaseAfter[id])
            ctx.slots[dead] = autograd::Var();
    }
    return slowed;
}

const char *
schedPolicyName(SchedPolicy policy)
{
    return policy == SchedPolicy::Sequential ? "sequential" : "parallel";
}

bool
tryParseSchedPolicy(const std::string &name, SchedPolicy *policy)
{
    const std::string n = toLower(name);
    if (n == "sequential" || n == "seq") {
        *policy = SchedPolicy::Sequential;
        return true;
    }
    if (n == "parallel" || n == "par") {
        *policy = SchedPolicy::Parallel;
        return true;
    }
    return false;
}

bool
prunedByDropMask(const StageNode &node, uint32_t drop_mask)
{
    return drop_mask != 0 && node.modality != trace::kNoModality &&
           node.modality < 32 &&
           (drop_mask >> static_cast<unsigned>(node.modality)) & 1u;
}

GraphRun
runGraph(const StageGraph &graph, ExecContext &ctx,
         const ScheduleOptions &options)
{
    GraphRun run;
    run.nodes.resize(graph.size());
    ctx.slots.assign(graph.size(), autograd::Var());

    const bool grad_enabled = autograd::GradMode::enabled();
    // The tape is built single-threaded: training passes always take
    // the sequential schedule regardless of the requested policy.
    SchedPolicy policy = options.policy;
    if (grad_enabled)
        policy = SchedPolicy::Sequential;

    MM_ASSERT(!options.plan ||
                  options.plan->releaseAfter.size() == graph.size(),
              "memory plan built for a different graph");
    // Injected failures propagate as exceptions through the scheduler;
    // they must not be thrown across the worker pool's task boundary.
    MM_ASSERT(!options.faults || options.faults->empty() ||
                  policy == SchedPolicy::Sequential,
              "fault injection requires the sequential policy");

    const double t0 = core::nowUs();
    if (policy == SchedPolicy::Sequential) {
        for (size_t id = 0; id < graph.size(); ++id) {
            const StageNode &node = graph.node(id);
            if (prunedByDropMask(node, options.dropMask)) {
                ++run.prunedNodes;
                continue;
            }
            if (runNode(id, node, ctx, options, grad_enabled,
                        run.nodes[id]))
                ++run.injectedSlowdowns;
        }
    } else {
        for (int level = 0; level < graph.numLevels(); ++level) {
            const std::vector<size_t> ids = graph.levelNodes(level);
            std::vector<size_t> live;
            live.reserve(ids.size());
            for (size_t id : ids) {
                if (prunedByDropMask(graph.node(id), options.dropMask))
                    ++run.prunedNodes;
                else
                    live.push_back(id);
            }
            // One wave per dependency level: members of a level never
            // depend on each other, so they are free to overlap. The
            // run is fault-free (asserted above), so no straggler fires.
            core::parallelFor(
                0, static_cast<int64_t>(live.size()), 1,
                [&](int64_t begin, int64_t end) {
                    for (int64_t i = begin; i < end; ++i) {
                        const size_t id = live[static_cast<size_t>(i)];
                        runNode(id, graph.node(id), ctx, options,
                                grad_enabled, run.nodes[id]);
                    }
                });
        }
    }
    run.totalUs = core::nowUs() - t0;
    return run;
}

trace::RecordingSink
mergeNodeTraces(const GraphRun &run, NodeTraceIndex *index)
{
    trace::RecordingSink merged;
    if (index) {
        index->kernelStart.assign(1, 0);
        index->runtimeStart.assign(1, 0);
    }
    size_t total_kernels = 0, total_runtimes = 0, total_allocs = 0,
           total_unified = 0;
    for (const NodeRun &node : run.nodes) {
        total_kernels += node.trace.kernels.size();
        total_runtimes += node.trace.runtimes.size();
        total_allocs += node.trace.allocs.size();
        total_unified += node.trace.unified.size();
    }
    merged.kernels.reserve(total_kernels);
    merged.runtimes.reserve(total_runtimes);
    merged.allocs.reserve(total_allocs);
    merged.unified.reserve(total_unified);

    using EntryKind = trace::RecordingSink::EntryKind;
    for (const NodeRun &node : run.nodes) {
        const uint32_t kernel_base =
            static_cast<uint32_t>(merged.kernels.size());
        const uint32_t runtime_base =
            static_cast<uint32_t>(merged.runtimes.size());
        merged.kernels.insert(merged.kernels.end(),
                              node.trace.kernels.begin(),
                              node.trace.kernels.end());
        merged.runtimes.insert(merged.runtimes.end(),
                               node.trace.runtimes.begin(),
                               node.trace.runtimes.end());
        merged.allocs.insert(merged.allocs.end(),
                             node.trace.allocs.begin(),
                             node.trace.allocs.end());
        for (const auto &entry : node.trace.unified) {
            trace::RecordingSink::Entry adjusted = entry;
            adjusted.index += entry.kind == EntryKind::Kernel
                                  ? kernel_base
                                  : runtime_base;
            merged.unified.push_back(adjusted);
        }
        if (index) {
            index->kernelStart.push_back(merged.kernels.size());
            index->runtimeStart.push_back(merged.runtimes.size());
        }
    }
    return merged;
}

} // namespace pipeline
} // namespace mmbench
