#include "runner/runresult.hh"

#include <algorithm>
#include <cmath>

namespace mmbench {
namespace runner {

const char *const kResultSchema = "mmbench-result-v1";

double
percentileSorted(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    if (sorted.size() == 1)
        return sorted[0];
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

LatencyStats
LatencyStats::fromSamples(std::vector<double> samples)
{
    LatencyStats stats;
    if (samples.empty())
        return stats;
    std::sort(samples.begin(), samples.end());
    stats.count = static_cast<int>(samples.size());
    stats.min = samples.front();
    stats.max = samples.back();
    double sum = 0.0;
    for (double s : samples)
        sum += s;
    stats.mean = sum / static_cast<double>(samples.size());
    stats.p50 = percentileSorted(samples, 50.0);
    stats.p95 = percentileSorted(samples, 95.0);
    stats.p99 = percentileSorted(samples, 99.0);
    return stats;
}

core::JsonValue
LatencyStats::toJson() const
{
    core::JsonValue obj = core::JsonValue::object();
    obj.set("p50", p50);
    obj.set("p95", p95);
    obj.set("p99", p99);
    obj.set("mean", mean);
    obj.set("min", min);
    obj.set("max", max);
    obj.set("count", static_cast<int64_t>(count));
    return obj;
}

core::JsonValue
RunResult::toJson() const
{
    core::JsonValue obj = core::JsonValue::object();
    obj.set("schema", kResultSchema);
    obj.set("kind", "workload");
    obj.set("name", spec.workload);
    obj.set("device", device);
    obj.set("threads", static_cast<int64_t>(threads));

    core::JsonValue spec_json = core::JsonValue::object();
    spec_json.set("workload", spec.workload);
    spec_json.set("fusion", fusion);
    spec_json.set("fusion_explicit", spec.hasFusion);
    spec_json.set("mode", runModeName(spec.mode));
    spec_json.set("batch", static_cast<int64_t>(spec.batch));
    spec_json.set("threads", static_cast<int64_t>(spec.threads));
    spec_json.set("scale", static_cast<double>(spec.sizeScale));
    spec_json.set("seed", static_cast<int64_t>(spec.seed));
    spec_json.set("warmup", static_cast<int64_t>(spec.warmup));
    spec_json.set("repeat", static_cast<int64_t>(spec.repeat));
    spec_json.set("device", spec.device);
    spec_json.set("sched", pipeline::schedPolicyName(spec.sched));
    spec_json.set("inflight", static_cast<int64_t>(spec.inflight));
    spec_json.set("requests", static_cast<int64_t>(spec.requests));
    spec_json.set("arrival", pipeline::arrivalKindName(spec.arrival));
    spec_json.set("rate_rps", spec.rateRps);
    // Historical key: the static batch cap was `--coalesce N`; the key
    // keeps its name (= spec.maxBatch) so existing consumers and the
    // default record stay byte-identical.
    spec_json.set("coalesce", static_cast<int64_t>(spec.maxBatch));
    // Serving-scheduler knobs (additive v1 fields, non-default only).
    if (spec.batchWaitUs > 0)
        spec_json.set("batch_wait_us",
                      static_cast<int64_t>(spec.batchWaitUs));
    if (!spec.classes.empty())
        spec_json.set("classes", spec.classes);
    // Fault-tolerance knobs (additive v1 fields).
    spec_json.set("faults", spec.faults);
    spec_json.set("queue_cap", static_cast<int64_t>(spec.queueCap));
    spec_json.set("deadline_ms", spec.deadlineMs);
    spec_json.set("retries", static_cast<int64_t>(spec.retries));
    spec_json.set("shed", spec.shed);
    // Kernel-fusion knobs: emitted only when the fused path is on, so
    // a default run's record stays byte-identical to pre-solver output.
    if (spec.fuseKernels) {
        spec_json.set("fusion_kernels", true);
        spec_json.set("autotune", solver::autotuneModeName(spec.autotune));
        if (!spec.perfdb.empty())
            spec_json.set("perfdb", spec.perfdb);
    }
    // Compute dtype (additive v1 field, non-default only: the f32
    // record stays byte-identical).
    if (spec.dtype != tensor::DType::F32)
        spec_json.set("dtype", tensor::dtypeName(spec.dtype));
    obj.set("spec", std::move(spec_json));

    obj.set("latency_us", hostLatencyUs.toJson());
    obj.set("sim_latency_us", simLatencyUs.toJson());
    obj.set("throughput_sps", throughputSps);
    obj.set("sim_throughput_sps", simThroughputSps);

    core::JsonValue stages_json = core::JsonValue::array();
    for (const StageTime &st : stages) {
        core::JsonValue row = core::JsonValue::object();
        row.set("stage", st.stage);
        row.set("gpu_us", st.gpuUs);
        row.set("cpu_us", st.cpuUs);
        stages_json.push(std::move(row));
    }
    obj.set("stages", std::move(stages_json));

    core::JsonValue modalities_json = core::JsonValue::array();
    for (const ModalityTime &mt : modalities) {
        core::JsonValue row = core::JsonValue::object();
        row.set("modality", mt.modality);
        row.set("gpu_us", mt.gpuUs);
        modalities_json.push(std::move(row));
    }
    obj.set("modalities", std::move(modalities_json));

    // Node timeline: direct per-node measurement of the stage graph
    // (additive to the mmbench-result-v1 schema).
    core::JsonValue nodes_json = core::JsonValue::array();
    for (const NodeTime &nt : nodes) {
        core::JsonValue row = core::JsonValue::object();
        row.set("name", nt.name);
        row.set("stage", nt.stage);
        row.set("modality", static_cast<int64_t>(nt.modality));
        row.set("host_us", nt.hostUs);
        row.set("gpu_us", nt.gpuUs);
        row.set("cpu_us", nt.cpuUs);
        nodes_json.push(std::move(row));
    }
    obj.set("nodes", std::move(nodes_json));

    // Serve-mode aggregates (additive; only present for mode=serve).
    if (spec.mode == RunMode::Serve) {
        core::JsonValue serve_json = core::JsonValue::object();
        serve_json.set("inflight", static_cast<int64_t>(serve.inflight));
        serve_json.set("requests", static_cast<int64_t>(serve.requests));
        serve_json.set("wall_us", serve.wallUs);
        serve_json.set("arrival", serve.arrival);
        serve_json.set("offered_rps", serve.offeredRps);
        serve_json.set("achieved_rps", serve.achievedRps);
        serve_json.set("coalesce", static_cast<int64_t>(serve.coalesce));
        serve_json.set("batches", static_cast<int64_t>(serve.batches));
        serve_json.set("queue_us", serve.queueUs.toJson());
        serve_json.set("service_us", serve.serviceUs.toJson());
        // Request-lifecycle accounting (additive; on a fault-free,
        // deadline-free run ok == requests and everything else is 0).
        serve_json.set("ok", static_cast<int64_t>(serve.ok));
        serve_json.set("degraded", static_cast<int64_t>(serve.degraded));
        serve_json.set("shed", static_cast<int64_t>(serve.shed));
        serve_json.set("timeouts", static_cast<int64_t>(serve.timeouts));
        serve_json.set("failed", static_cast<int64_t>(serve.failed));
        serve_json.set("retries", static_cast<int64_t>(serve.retries));
        serve_json.set("faults_injected",
                       static_cast<int64_t>(serve.faultsInjected));
        serve_json.set("goodput_rps", serve.goodputRps);
        // Per-class accounting (additive, classed streams only).
        if (!serve.classes.empty()) {
            core::JsonValue classes_json = core::JsonValue::array();
            for (const ClassStats &cs : serve.classes) {
                core::JsonValue row = core::JsonValue::object();
                row.set("name", cs.name);
                row.set("priority", static_cast<int64_t>(cs.priority));
                row.set("requests", static_cast<int64_t>(cs.requests));
                row.set("ok", static_cast<int64_t>(cs.ok));
                row.set("degraded", static_cast<int64_t>(cs.degraded));
                row.set("shed", static_cast<int64_t>(cs.shed));
                row.set("timeouts", static_cast<int64_t>(cs.timeouts));
                row.set("failed", static_cast<int64_t>(cs.failed));
                row.set("latency_us", cs.latencyUs.toJson());
                row.set("goodput_rps", cs.goodputRps);
                classes_json.push(std::move(row));
            }
            serve_json.set("classes", std::move(classes_json));
        }
        obj.set("serve", std::move(serve_json));
    }

    // Solver-registry accounting (additive; only present when the
    // fused-kernel path governed this run).
    if (solver.active) {
        core::JsonValue solver_json = core::JsonValue::object();
        solver_json.set("fused_ops", solver.fusedOps);
        solver_json.set("searches", solver.searches);
        solver_json.set("search_ms", solver.searchMs);
        solver_json.set("perfdb_hits", solver.perfdbHits);
        solver_json.set("fused_groups",
                        static_cast<int64_t>(solver.fusedGroups));
        core::JsonValue unsupported_json = core::JsonValue::array();
        for (const std::string &entry : solver.unsupported)
            unsupported_json.push(entry);
        solver_json.set("unsupported", std::move(unsupported_json));
        obj.set("solver", std::move(solver_json));
    }

    // Output-error accounting (additive; only present for reduced-
    // precision runs, so f32 records stay byte-identical).
    if (precision.active) {
        core::JsonValue precision_json = core::JsonValue::object();
        precision_json.set("dtype", precision.dtype);
        precision_json.set("max_abs_err", precision.maxAbsErr);
        precision_json.set("rel_l2_err", precision.relL2Err);
        obj.set("precision", std::move(precision_json));
    }

    core::JsonValue mem = core::JsonValue::object();
    mem.set("model_bytes", memory.modelBytes);
    mem.set("dataset_bytes", memory.datasetBytes);
    mem.set("peak_intermediate_bytes", memory.peakIntermediateBytes);
    // Storage-arena accounting of the timed window (additive fields).
    mem.set("peak_bytes", memory.peakBytes);
    mem.set("allocs", memory.allocs);
    mem.set("pool_hits", memory.poolHits);
    mem.set("pool_reuse_ratio", memory.poolReuseRatio);
    obj.set("memory", std::move(mem));

    core::JsonValue metric_json = core::JsonValue::object();
    if (hasMetric) {
        metric_json.set("name", metricName);
        metric_json.set("value", metric);
    }
    obj.set("metric", std::move(metric_json));
    return obj;
}

} // namespace runner
} // namespace mmbench
