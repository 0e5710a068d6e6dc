/**
 * @file
 * RunResult: everything one benchmark run produces — latency
 * percentiles, throughput, per-stage and per-modality time, peak
 * memory and the task metric — plus its canonical JSON encoding
 * (schema "mmbench-result-v1", shared with bench/ops_micro so kernel
 * microbenchmarks land in the same trajectory file).
 */

#ifndef MMBENCH_RUNNER_RUNRESULT_HH
#define MMBENCH_RUNNER_RUNRESULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/json.hh"
#include "runner/runspec.hh"

namespace mmbench {
namespace runner {

/** Schema tag every emitted JSON record carries. */
extern const char *const kResultSchema;

/**
 * Linear-interpolated percentile (p in [0, 100]) of an ascending-
 * sorted sample: rank p/100 * (n-1), interpolated between the two
 * straddling order statistics. Empty yields 0.
 */
double percentileSorted(const std::vector<double> &sorted, double p);

/** Order statistics over a sample of latencies (microseconds). */
struct LatencyStats
{
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    int count = 0;

    /** Compute from raw samples (copied; empty yields all-zero). */
    static LatencyStats fromSamples(std::vector<double> samples);

    /** JSON object {p50,p95,p99,mean,min,max,count}. */
    core::JsonValue toJson() const;
};

/** One execution stage's time split. */
struct StageTime
{
    std::string stage; ///< "encoder" / "fusion" / "head"
    double gpuUs = 0.0;
    double cpuUs = 0.0;
};

/** One modality's encoder time. */
struct ModalityTime
{
    std::string modality; ///< "image", "audio", ...
    double gpuUs = 0.0;
};

/** One stage-graph node's direct measurement (infer mode). */
struct NodeTime
{
    std::string name;  ///< "preprocess:image", "encoder:audio", ...
    std::string stage; ///< trace::stageName of the node's stage
    int modality = -1; ///< modality index; -1 for fusion/head
    double hostUs = 0.0; ///< measured host wall time of the node
    double gpuUs = 0.0;  ///< simulated device time of its kernels
    double cpuUs = 0.0;  ///< simulated launches + runtime ops
};

/**
 * Per-request-class aggregates of one serve run (spec.classes).
 * Outcome counters sum to `requests`; latency covers serviced
 * requests (queue wait + service); goodput counts ok + degraded
 * completions per second of serving wall clock.
 */
struct ClassStats
{
    std::string name;
    int priority = 0;
    int requests = 0;
    int ok = 0;
    int degraded = 0;
    int shed = 0;
    int timeouts = 0;
    int failed = 0;
    LatencyStats latencyUs;
    double goodputRps = 0.0;
};

/** Serve-mode aggregates (mode == Serve only). */
struct ServeStats
{
    int inflight = 0;    ///< concurrent in-flight requests
    int requests = 0;    ///< total requests issued
    double wallUs = 0.0; ///< wall clock of the whole serving window

    /** Arrival process actually run ("closed" / "poisson" / "fixed"). */
    std::string arrival = "closed";
    /** Open-loop offered arrival rate (requests/s); 0 when closed. */
    double offeredRps = 0.0;
    /** Completed requests per second of serving wall clock. */
    double achievedRps = 0.0;
    /**
     * Batch cap the dispatcher ran with (1 = no batching). Kept under
     * its historical JSON name "coalesce"; mirrors spec.maxBatch.
     */
    int coalesce = 1;
    /** Service invocations (< requests when coalescing kicked in). */
    int batches = 0;
    /** Per-class aggregates (spec.classes); empty when classless. */
    std::vector<ClassStats> classes;
    /** Queue wait per request (arrival -> service start). */
    LatencyStats queueUs;
    /** Service time per request (start -> completion). */
    LatencyStats serviceUs;

    /**
     * @name Fault-tolerance accounting (additive v1 fields)
     * Request-lifecycle outcome counts (ok + degraded + shed +
     * timeouts + failed == requests) plus the work the fault machinery
     * did. All zero on a fault-free, deadline-free run — the inert
     * path reports exactly the historical record plus zero-valued
     * fields. goodputRps counts only useful completions (ok +
     * degraded) per second of serving wall clock; achievedRps keeps
     * its historical meaning (everything serviced, even late).
     * @{
     */
    int ok = 0;
    int degraded = 0;
    int shed = 0;
    int timeouts = 0;
    int failed = 0;
    int retries = 0;
    int faultsInjected = 0;
    double goodputRps = 0.0;
    /** @} */
};

/** Solver-registry accounting (kernel fusion / autotuning runs). */
struct SolverStats
{
    bool active = false;    ///< a ScopedConfig governed this run
    uint64_t fusedOps = 0;  ///< fused-kernel invocations (act != none)
    uint64_t searches = 0;  ///< timed autotune searches performed
    uint64_t perfdbHits = 0;///< searches skipped via the perf-db
    double searchMs = 0.0;  ///< total wall time spent searching
    int fusedGroups = 0;    ///< layer pairs the planner rewrote
    /** Combos that looked fusable but fall back per-op, with reasons. */
    std::vector<std::string> unsupported;
};

/**
 * Output-error accounting of a reduced-precision run (spec.dtype !=
 * f32, infer mode): the workload's head output under the reduced
 * dtype compared element-wise against an identically-seeded f32
 * reference forward. Emitted as the conditional "precision" object.
 */
struct PrecisionStats
{
    bool active = false;  ///< a non-f32 dtype governed this run
    std::string dtype = "f32";
    double maxAbsErr = 0.0; ///< max |reduced - f32| over the output
    double relL2Err = 0.0;  ///< ||reduced - f32||_2 / ||f32||_2
};

/** Peak memory accounting of the run. */
struct MemoryUse
{
    uint64_t modelBytes = 0;
    uint64_t datasetBytes = 0;
    uint64_t peakIntermediateBytes = 0;

    /**
     * @name Storage-arena accounting (measured, all modes)
     * Physical behaviour of the MemoryPool over the timed window:
     * peak bytes held by live tensors, allocation requests, free-list
     * hits, and the resulting reuse ratio (hits / allocs). Additive
     * "mmbench-result-v1" fields: mem.peak_bytes / mem.allocs /
     * mem.pool_hits / mem.pool_reuse_ratio.
     * @{
     */
    uint64_t peakBytes = 0;
    uint64_t allocs = 0;
    uint64_t poolHits = 0;
    double poolReuseRatio = 0.0;
    /** @} */
};

/** Everything one run produces. */
struct RunResult
{
    RunSpec spec;
    std::string fusion;  ///< resolved fusion name actually run
    std::string device;  ///< device model name
    int threads = 1;     ///< effective worker-thread count

    /**
     * Host wall-clock time per timed repetition (CPU backend). In
     * serve mode this is the end-to-end request latency: queue wait +
     * service time (identical to service time for closed loops).
     */
    LatencyStats hostLatencyUs;
    /** Simulated device makespan per repetition (infer mode only). */
    LatencyStats simLatencyUs;

    /** Samples per second from the host wall clock. */
    double throughputSps = 0.0;
    /** Samples per second from the simulated makespan (infer only). */
    double simThroughputSps = 0.0;

    std::vector<StageTime> stages;         ///< infer mode only
    std::vector<ModalityTime> modalities;  ///< infer mode only
    /** Stage-graph node timeline, node-id order (infer mode only). */
    std::vector<NodeTime> nodes;
    /** Serve-mode aggregates (mode == Serve only). */
    ServeStats serve;
    /** Solver-registry counters (kernel fusion runs only). */
    SolverStats solver;
    /** Output error vs f32 (reduced-precision infer runs only). */
    PrecisionStats precision;
    MemoryUse memory;

    std::string metricName; ///< "Acc." / "F-1" / "MSE" / "DSC"
    double metric = 0.0;
    bool hasMetric = false;

    /** Full "mmbench-result-v1" JSON record (kind "workload"). */
    core::JsonValue toJson() const;
};

} // namespace runner
} // namespace mmbench

#endif // MMBENCH_RUNNER_RUNRESULT_HH
