/**
 * @file
 * RunSpec: the declarative description of one benchmark run —
 * workload, fusion implementation, mode, batch size, thread count,
 * size scale, seed, warmup/measure repetitions, scheduler policy and
 * (serve mode) concurrency. One RunSpec fully determines a run; the
 * mmbench CLI parses its flags into a RunSpec through one flag table
 * (specFlags()), which also drives sweep expansion and the flag block
 * of `mmbench help`.
 */

#ifndef MMBENCH_RUNNER_RUNSPEC_HH
#define MMBENCH_RUNNER_RUNSPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fusion/fusion.hh"
#include "pipeline/scheduler.hh"
#include "pipeline/serve.hh"
#include "sim/device.hh"
#include "solver/config.hh"
#include "tensor/dtype.hh"

namespace mmbench {
namespace runner {

/** What the run measures. */
enum class RunMode
{
    Infer, ///< repeated profiled inference passes over one batch
    Train, ///< timed optimizer steps on the synthetic task
    Serve, ///< concurrent in-flight requests through the stage graph
};

const char *runModeName(RunMode mode);

/** Declarative description of one benchmark run. */
struct RunSpec
{
    /** Registered workload name ("av-mnist", ...). */
    std::string workload;

    /**
     * Fusion implementation. When hasFusion is false the workload's
     * canonical (registered) fusion is used — the registry's
     * default-fusion rule.
     */
    bool hasFusion = false;
    fusion::FusionKind fusionKind = fusion::FusionKind::Concat;

    RunMode mode = RunMode::Infer;
    int64_t batch = 8;     ///< samples per batch
    int threads = 0;       ///< worker threads; 0 = pool default
    float sizeScale = 1.0f;
    uint64_t seed = 42;
    int warmup = 1;        ///< untimed repetitions
    int repeat = 5;        ///< timed repetitions (train: epochs)
    std::string device = "2080ti"; ///< simulated device model

    /** Stage-graph scheduler policy (infer and serve modes). */
    pipeline::SchedPolicy sched = pipeline::SchedPolicy::Sequential;

    /** Serve mode: concurrent in-flight requests. */
    int inflight = 4;
    /** Serve mode: total requests; 0 = 8x inflight. */
    int requests = 0;
    /** Serve mode: how requests are issued (closed / poisson / fixed). */
    pipeline::ArrivalKind arrival = pipeline::ArrivalKind::Closed;
    /** Serve mode: open-loop offered rate, requests/second. */
    double rateRps = 0.0;
    /** Serve mode, open loop: batch up to N queued requests. */
    int maxBatch = 1;
    /** Serve mode, open loop: under-filled batch hold time, microseconds. */
    int batchWaitUs = 0;
    /** Serve mode, open loop: request-class spec (classes.hh); ""=none. */
    std::string classes;
    /** Serve mode: fault-injection spec (faults.hh grammar); "" = none. */
    std::string faults;
    /** Serve mode, open loop: admission-queue bound; 0 = unbounded. */
    int queueCap = 0;
    /** Serve mode: per-request deadline in milliseconds; 0 = none. */
    double deadlineMs = 0.0;
    /** Serve mode: retry budget per request after an injected failure. */
    int retries = 0;
    /** Serve mode: load shedding on (default) or off (collapse baseline). */
    bool shed = true;

    /**
     * Kernel fusion (`--fusion on|off`): route inference through the
     * solver registry, collapsing Linear/Conv/norm + activation pairs
     * into single fused kernels. Off (the default) leaves every
     * pre-existing code path — and its bitwise output — untouched.
     * Note `--fusion` is overloaded: any other value selects the
     * modality-fusion implementation (fusionKind above).
     */
    bool fuseKernels = false;
    /** Solver autotuning policy; needs --fusion on when not off. */
    solver::AutotuneMode autotune = solver::AutotuneMode::Off;
    /** Perf-db path override; "" = $MMBENCH_PERFDB or the default. */
    std::string perfdb;

    /**
     * Compute dtype (`--dtype f32|bf16|f16|i8`). Non-f32 routes
     * eval-mode Linear/Conv2d through the per-dtype solver candidates
     * and records output error vs the f32 reference. i8 and f16 are
     * inference-only (rejected with --mode train at parse time); bf16
     * trains with f32 master weights — only the eval passes reduce.
     * f32 (the default) leaves every pre-existing path untouched.
     */
    tensor::DType dtype = tensor::DType::F32;

    /** Total requests a serve run issues (resolves requests == 0). */
    int serveRequests() const
    {
        return requests > 0 ? requests : inflight * 8;
    }

    /** Resolve the device name ("2080ti" / "nano" / "orin"). */
    sim::DeviceModel deviceModel() const;
};

/** One RunSpec flag: the parser, sweeps and usage text all read it. */
struct SpecFlag
{
    const char *name;  ///< "--batch"
    const char *value; ///< value placeholder in the usage text
    const char *help;  ///< one usage line
    bool sweeps;       ///< takes a comma-separated sweep list
    /**
     * Parse `value` into *spec, range-checked against the field it
     * fills; returns "" or an error that names the flag.
     */
    std::string (*set)(const char *flag, const std::string &value,
                       RunSpec *spec);
};

/** Every RunSpec flag, in usage order (sweeps nest in this order). */
const std::vector<SpecFlag> &specFlags();

/**
 * The cross-flag checks both the parser and runOne apply: returns ""
 * when the spec describes a run that executes as labeled, else the
 * reason, naming the flags involved. An empty workload passes (spec
 * templates fill it in later); any other must be registered. The
 * serve-loop rules are validateServeOptions' (on serveLoopOptions()),
 * which outside serve mode sees a closed loop.
 */
std::string validateRunSpec(const RunSpec &spec);

/**
 * The serve loop a spec describes, before runServe clamps `inflight`
 * to the thread count. `classes` is the parsed spec.classes (empty =
 * classless) and must outlive the returned options.
 */
pipeline::ServeLoopOptions serveLoopOptions(
    const RunSpec &spec, const pipeline::ClassPlan *classes);

/**
 * Parse spec flags (see specFlags()) into *spec. Flags not present
 * keep the spec's current values, so callers can pre-seed defaults.
 * Fails with a message in *error on an unknown flag, a missing or
 * out-of-range value, a spec validateRunSpec rejects, or a missing
 * workload. The deprecated `--pipeline on|off` and `--batcher
 * static|continuous` still parse: their value is checked, a warning
 * is printed, and the spec is left as it was.
 */
bool parseRunSpec(const std::vector<std::string> &args, RunSpec *spec,
                  std::string *error);

/**
 * Like parseRunSpec but the workload may stay unset: used for
 * spec templates (`mmbench run --smoke --mode serve`) whose workload
 * is filled in per run later.
 */
bool parseRunSpecTemplate(const std::vector<std::string> &args,
                          RunSpec *spec, std::string *error);

/**
 * Sweep-aware parse: comma-separated lists on the flags marked
 * `sweeps` expand into the cross-product of RunSpecs, nested in table
 * order (batch-major, dtype innermost). A plain spec yields exactly
 * one entry.
 */
bool parseRunSpecs(const std::vector<std::string> &args,
                   std::vector<RunSpec> *specs, std::string *error);

/** True when the name resolves to a device model preset. */
bool isKnownDevice(const std::string &name);

/** Comma-separated list of every accepted device alias. */
const std::string &knownDeviceNames();

} // namespace runner
} // namespace mmbench

#endif // MMBENCH_RUNNER_RUNSPEC_HH
