#include "runner/runner.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "autograd/optim.hh"
#include "core/clock.hh"
#include "core/logging.hh"
#include "core/parallel.hh"
#include "data/loader.hh"
#include "models/registry.hh"
#include "pipeline/fuseplan.hh"
#include "pipeline/serve.hh"
#include "profile/profiler.hh"
#include "solver/config.hh"
#include "tensor/ops.hh"
#include "tensor/pool.hh"
#include "trace/event.hh"

namespace mmbench {
namespace runner {

namespace {

void
fillCommon(RunResult *result, const RunSpec &spec,
           const models::MultiModalWorkload &workload)
{
    result->spec = spec;
    result->fusion =
        fusion::fusionKindName(workload.config().fusionKind);
    result->device = spec.deviceModel().name;
    result->threads = core::numThreads();
    result->metricName = workload.metricName();
}

/**
 * Measure the storage arena over one timed window: construct before
 * it (after warmup), call finish() after. Fills the additive mem.*
 * result fields — peak physical bytes, allocation requests, free-list
 * hits and the reuse ratio of the window.
 */
class PoolWindow
{
  public:
    PoolWindow()
    {
        tensor::MemoryPool::instance().resetPeak();
        before_ = tensor::MemoryPool::instance().stats();
    }

    void finish(MemoryUse *memory) const
    {
        const tensor::PoolStats after =
            tensor::MemoryPool::instance().stats();
        memory->peakBytes = after.peakBytes;
        memory->allocs = after.requests - before_.requests;
        memory->poolHits = after.poolHits - before_.poolHits;
        memory->poolReuseRatio =
            memory->allocs == 0
                ? 0.0
                : static_cast<double>(memory->poolHits) /
                      static_cast<double>(memory->allocs);
    }

  private:
    tensor::PoolStats before_;
};

/** Map the profiler's node timeline into the result's breakdowns. */
void
fillNodeBreakdowns(RunResult *result, const profile::ProfileResult &last,
                   const models::MultiModalWorkload &workload)
{
    // Stage rows (encoder/fusion/head) and per-modality encoder times
    // come straight from the per-node measurements — no trace-scope
    // scraping.
    for (trace::Stage s : {trace::Stage::Encoder, trace::Stage::Fusion,
                           trace::Stage::Head}) {
        StageTime st;
        st.stage = trace::stageName(s);
        for (const profile::NodeProfile &np : last.nodes) {
            if (np.stage != s)
                continue;
            st.gpuUs += np.gpuUs;
            st.cpuUs += np.cpuUs;
        }
        result->stages.push_back(std::move(st));
    }
    for (size_t m = 0; m < workload.numModalities(); ++m) {
        ModalityTime mt;
        mt.modality = workload.dataSpec().modalities[m].name;
        for (const profile::NodeProfile &np : last.nodes) {
            if (np.stage == trace::Stage::Encoder &&
                np.modality == static_cast<int>(m))
                mt.gpuUs += np.gpuUs;
        }
        result->modalities.push_back(std::move(mt));
    }
    for (const profile::NodeProfile &np : last.nodes) {
        NodeTime nt;
        nt.name = np.name;
        nt.stage = trace::stageName(np.stage);
        nt.modality = np.modality;
        nt.hostUs = np.hostUs;
        nt.gpuUs = np.gpuUs;
        nt.cpuUs = np.cpuUs;
        result->nodes.push_back(std::move(nt));
    }
}

void
runInfer(const RunSpec &spec, models::MultiModalWorkload &workload,
         RunResult *result)
{
    auto task = workload.makeTask(spec.seed);
    data::Batch batch = task.sample(spec.batch);

    profile::Profiler profiler(spec.deviceModel());
    for (int i = 0; i < spec.warmup; ++i)
        profiler.profileGraph(workload, batch, spec.sched);

    // Arena accounting covers exactly the timed repetitions: warmup
    // passes have populated the free lists, so these numbers are the
    // steady state the mem.* fields advertise.
    PoolWindow pool_window;
    std::vector<double> wall_us, sim_us;
    profile::ProfileResult last;
    for (int i = 0; i < spec.repeat; ++i) {
        const double t0 = core::nowUs();
        last = profiler.profileGraph(workload, batch, spec.sched);
        wall_us.push_back(core::nowUs() - t0);
        sim_us.push_back(last.timeline.totalUs);
    }
    pool_window.finish(&result->memory);

    result->hostLatencyUs = LatencyStats::fromSamples(wall_us);
    result->simLatencyUs = LatencyStats::fromSamples(sim_us);
    const double b = static_cast<double>(spec.batch);
    if (result->hostLatencyUs.mean > 0.0)
        result->throughputSps = b * 1e6 / result->hostLatencyUs.mean;
    if (result->simLatencyUs.mean > 0.0)
        result->simThroughputSps = b * 1e6 / result->simLatencyUs.mean;

    fillNodeBreakdowns(result, last, workload);

    result->memory.modelBytes = last.modelBytes;
    result->memory.datasetBytes = last.datasetBytes;
    result->memory.peakIntermediateBytes =
        last.timeline.memory.peakBytes[static_cast<size_t>(
            trace::MemCategory::Intermediate)];

    // Chance-floor metric of the untrained network on this batch.
    {
        workload.train(false);
        autograd::NoGradGuard no_grad;
        autograd::Var out = workload.forward(batch);
        result->metric = workload.metric(out.value(), batch.targets);
        result->hasMetric = true;

        // Reduced-precision run: compare this output element-wise
        // against the f32 reference forward of the same weights and
        // batch (the nested scope restores the reduced dtype on exit).
        if (tensor::dtypeActive()) {
            const tensor::Tensor reduced = out.value();
            tensor::Tensor reference;
            {
                tensor::DTypeScope f32_scope(tensor::DType::F32);
                reference = workload.forward(batch).value();
            }
            const float *r = reduced.data();
            const float *f = reference.data();
            const int64_t n = reference.numel();
            double max_abs = 0.0, diff2 = 0.0, ref2 = 0.0;
            for (int64_t i = 0; i < n; ++i) {
                const double d = static_cast<double>(r[i]) -
                                 static_cast<double>(f[i]);
                max_abs = std::max(max_abs, std::fabs(d));
                diff2 += d * d;
                ref2 += static_cast<double>(f[i]) *
                        static_cast<double>(f[i]);
            }
            result->precision.active = true;
            result->precision.dtype =
                tensor::dtypeName(tensor::activeDType());
            result->precision.maxAbsErr = max_abs;
            result->precision.relL2Err =
                ref2 > 0.0 ? std::sqrt(diff2 / ref2) : std::sqrt(diff2);
        }
    }
}

void
runTrain(const RunSpec &spec, models::MultiModalWorkload &workload,
         RunResult *result)
{
    auto task = workload.makeTask(spec.seed);
    const int64_t train_size = std::max<int64_t>(spec.batch * 4, 64);
    data::InMemoryDataset train_set(task, train_size);
    data::Batch test = task.sample(64);
    data::DataLoader loader(train_set, spec.batch, /*shuffle=*/true,
                            spec.seed + 1);

    autograd::Adam opt(workload.parameters(), 0.01f);
    workload.train(true);
    std::vector<double> step_us;
    int64_t timed_samples = 0;
    std::unique_ptr<PoolWindow> pool_window;
    const int total_epochs = spec.warmup + spec.repeat;
    for (int epoch = 0; epoch < total_epochs; ++epoch) {
        const bool timed = epoch >= spec.warmup;
        if (timed && !pool_window)
            pool_window = std::make_unique<PoolWindow>();
        for (int64_t b = 0; b < loader.batchesPerEpoch(); ++b) {
            data::Batch batch = loader.batch(b);
            const double t0 = core::nowUs();
            opt.zeroGrad();
            autograd::Var loss =
                workload.loss(workload.forward(batch), batch.targets);
            autograd::backward(loss);
            opt.clipGradNorm(5.0f);
            opt.step();
            if (timed) {
                step_us.push_back(core::nowUs() - t0);
                timed_samples += batch.size;
            }
        }
        loader.nextEpoch();
    }

    result->hostLatencyUs = LatencyStats::fromSamples(step_us);
    double total_us = 0.0;
    for (double s : step_us)
        total_us += s;
    if (total_us > 0.0) {
        result->throughputSps =
            static_cast<double>(timed_samples) * 1e6 / total_us;
    }

    if (pool_window)
        pool_window->finish(&result->memory);
    result->memory.modelBytes = workload.parameterBytes();
    result->memory.datasetBytes = train_set.all().inputBytes();

    workload.train(false);
    autograd::NoGradGuard no_grad;
    autograd::Var out = workload.forward(test);
    result->metric = workload.metric(out.value(), test.targets);
    result->hasMetric = true;
}

} // namespace

data::Batch
coalesceBatches(const std::vector<data::Batch> &batches,
                const std::vector<int> &ids, bool include_targets)
{
    data::Batch fused;
    const size_t modalities =
        batches[static_cast<size_t>(ids.front())].modalities.size();
    for (size_t m = 0; m < modalities; ++m) {
        std::vector<tensor::Tensor> parts;
        parts.reserve(ids.size());
        for (const int i : ids)
            parts.push_back(
                batches[static_cast<size_t>(i)].modalities[m]);
        fused.modalities.push_back(tensor::concat(parts, 0));
    }
    for (const int i : ids)
        fused.size += batches[static_cast<size_t>(i)].size;
    if (include_targets) {
        std::vector<tensor::Tensor> targets;
        targets.reserve(ids.size());
        for (const int i : ids)
            targets.push_back(batches[static_cast<size_t>(i)].targets);
        fused.targets = tensor::concat(targets, 0);
    }
    return fused;
}

namespace {

/** Set bits in a drop mask (fault-dropped modalities per request). */
int
countBits(uint32_t mask)
{
    int n = 0;
    for (; mask != 0; mask &= mask - 1)
        ++n;
    return n;
}

void
runServe(const RunSpec &spec, models::MultiModalWorkload &workload,
         RunResult *result)
{
    auto task = workload.makeTask(spec.seed);
    const int total = spec.serveRequests();
    std::vector<data::Batch> batches;
    batches.reserve(static_cast<size_t>(total));
    for (int r = 0; r < total; ++r)
        batches.push_back(task.sample(spec.batch));
    // The warmup request gets its own batch: it primes caches and
    // builds the stage graph before concurrent requests race for it,
    // but must not belong to the timed stream — reusing request 0
    // would serve one just-warmed batch among otherwise cold ones.
    data::Batch warmup_batch = task.sample(spec.batch);

    workload.train(false);

    // Warmup request, which also documents the chance-floor metric of
    // the untrained network.
    {
        autograd::NoGradGuard no_grad;
        autograd::Var out = workload.forward(warmup_batch);
        result->metric =
            workload.metric(out.value(), warmup_batch.targets);
        result->hasMetric = true;
    }

    // The fault plan seeds from the run seed: decisions are a pure
    // function of (seed, request, node, attempt), decorrelated from
    // the arrival schedule by the plan's hash chain.
    pipeline::FaultPlan plan;
    {
        std::string fault_error;
        if (!pipeline::parseFaultPlan(spec.faults, spec.seed, &plan,
                                      &fault_error))
            MM_FATAL("--faults: %s", fault_error.c_str());
    }

    // Per-request modality dropout, decided up front (pure function of
    // the plan — precomputing keeps the hot path to one array read).
    std::vector<uint32_t> drop_masks;
    if (plan.hasKind(pipeline::FaultKind::DropModality)) {
        drop_masks.assign(static_cast<size_t>(total), 0);
        for (int r = 0; r < total; ++r) {
            for (size_t m = 0; m < workload.numModalities(); ++m) {
                if (plan.dropsModality(
                        r, workload.dataSpec().modalities[m].name))
                    drop_masks[static_cast<size_t>(r)] |= 1u << m;
            }
        }
    }

    // Request classes: parsed once, owned here for the stream's
    // lifetime (the serve loop and per-class aggregation read it).
    pipeline::ClassPlan class_plan;
    if (!spec.classes.empty()) {
        std::string class_error;
        if (!pipeline::parseClassPlan(spec.classes, &class_plan,
                                      &class_error))
            MM_FATAL("--classes: %s", class_error.c_str());
    }
    bool any_deadline = spec.deadlineMs > 0.0;
    for (const pipeline::RequestClass &c : class_plan.classes())
        any_deadline = any_deadline || c.deadlineUs > 0.0;

    // Under deadline pressure a degradable workload serves only its
    // first modality (the others zero-imputed) instead of timing out
    // at full fidelity. Only meaningful with shedding on and a
    // deadline set (stream-wide or on any request class).
    const bool pressure_degrade =
        spec.shed && any_deadline && workload.numModalities() > 1;
    const uint32_t pressure_mask =
        pressure_degrade ? workload.dropAllExcept(0) : 0;
    if (!drop_masks.empty() || pressure_degrade)
        workload.primeDegraded();

    // Each request runs its graph sequentially — the pool is spent on
    // request-level concurrency, and nested parallelFor would degrade
    // to that anyway (validateRunSpec rejects serve + parallel).
    // Per-request trace capture stays off on the serve hot path:
    // nothing consumes node traces here, and capturing would allocate
    // a RecordingSink per node per request (test_pipeline pins this
    // stays empty).
    pipeline::ScheduleOptions options;
    options.policy = pipeline::SchedPolicy::Sequential;
    options.captureTraces = false;

    // Prime the lazy memory plan (the warmup above built the stage
    // graph) before concurrent requests race forwardGraph: lazy plan
    // construction is single-threaded by contract.
    workload.memoryPlan(options.policy);

    // Clamp to the effective thread count so a --threads limit also
    // bounds serving concurrency (a --threads sweep in serve mode
    // must measure what it labels).
    pipeline::ServeLoopOptions loop = serveLoopOptions(spec, &class_plan);
    loop.inflight = std::min(loop.inflight, core::numThreads());

    // A request whose mask covers every modality has no live input:
    // it fails rather than answer from zero-imputed inputs alone.
    const uint32_t all_dropped = workload.dropAllExcept(0) | 1u;

    // Arena window over the serving stream: the warmup request above
    // primed the free lists, so steady-state requests should be
    // near-pure reuse.
    PoolWindow pool_window;
    const pipeline::ServeLoopResult stream = pipeline::runServeLoop(
        total, loop,
        [&](const pipeline::ServiceCall &call)
            -> pipeline::ServiceResult {
            // Per-request arena scoping: this slot's intermediates
            // recycle through the serving thread's own shard, and a
            // ballooned request hands its excess back on completion
            // instead of fragmenting the other in-flight slots.
            tensor::RequestArenaScope arena;
            autograd::NoGradGuard no_grad;
            pipeline::ServiceResult sr;

            uint32_t mask = 0;
            if (!drop_masks.empty()) {
                // A batched group adopts the union of its members'
                // dropped modalities (the group runs as one batch, so
                // a modality missing from any member is imputed for
                // the whole group).
                for (const int i : call.ids) {
                    const uint32_t m =
                        drop_masks[static_cast<size_t>(i)];
                    mask |= m;
                    sr.faultsInjected += countBits(m);
                }
            }
            if (call.underPressure && pressure_degrade)
                mask |= pressure_mask;
            if ((mask & all_dropped) == all_dropped) {
                sr.failed = true;
                return sr;
            }

            pipeline::ScheduleOptions req = options;
            req.dropMask = mask;
            if (!plan.empty()) {
                // A batch executes once, so its fail and slow faults
                // are rolled once, on the head request id
                // (faults.hh), and apply to every member.
                req.faults = &plan;
                req.faultRequest = call.first;
            }

            // Assembly of the service batch counts toward service
            // time, as in a real batching server.
            data::Batch fused_batch;
            const data::Batch *input;
            if (call.count == 1) {
                input = &batches[static_cast<size_t>(call.first)];
            } else {
                // Serve mode is inference-only: targets are never
                // read downstream, so the fan-in skips their concat.
                fused_batch = coalesceBatches(batches, call.ids,
                                              /*include_targets=*/false);
                input = &fused_batch;
            }

            // Bounded retry with exponential backoff: injected
            // failures are transient per attempt (the plan re-rolls
            // with attempt+1), so a retry can succeed. Exhausting the
            // budget reports the request failed.
            for (int attempt = 0;; ++attempt) {
                req.faultAttempt = attempt;
                try {
                    pipeline::GraphRun graph_run;
                    workload.forwardGraph(*input, req, &graph_run);
                    sr.faultsInjected += graph_run.injectedSlowdowns;
                    break;
                } catch (const pipeline::FaultError &) {
                    ++sr.faultsInjected;
                    if (attempt >= spec.retries) {
                        sr.failed = true;
                        break;
                    }
                    ++sr.retries;
                    // 100us * 2^attempt, capped so a large --retries
                    // cannot overflow into a multi-second stall.
                    std::this_thread::sleep_for(std::chrono::microseconds(
                        100LL << std::min(attempt, 10)));
                }
            }
            sr.degraded = !sr.failed && mask != 0;
            return sr;
        });
    pool_window.finish(&result->memory);

    // Shed requests never ran: their timings record only how long
    // they waited before being dropped, which would poison the
    // latency/service percentiles of the work actually done.
    std::vector<double> latency, queue, service;
    latency.reserve(stream.requests.size());
    queue.reserve(stream.requests.size());
    service.reserve(stream.requests.size());
    for (size_t i = 0; i < stream.requests.size(); ++i) {
        if (stream.outcomes[i] == pipeline::RequestOutcome::Shed)
            continue;
        const pipeline::RequestTiming &t = stream.requests[i];
        latency.push_back(t.latencyUs());
        queue.push_back(t.queueUs());
        service.push_back(t.serviceUs());
    }
    result->hostLatencyUs = LatencyStats::fromSamples(latency);
    result->serve.queueUs = LatencyStats::fromSamples(queue);
    result->serve.serviceUs = LatencyStats::fromSamples(service);

    const double wall = stream.wallUs;
    const int serviced = total - stream.shed;
    if (wall > 0.0) {
        result->throughputSps = static_cast<double>(serviced) *
                                static_cast<double>(spec.batch) * 1e6 /
                                wall;
        result->serve.achievedRps =
            static_cast<double>(serviced) * 1e6 / wall;
        // Goodput counts only useful completions: full-fidelity or
        // degraded answers delivered in time.
        result->serve.goodputRps =
            static_cast<double>(stream.ok + stream.degraded) * 1e6 /
            wall;
    }
    result->serve.inflight = loop.inflight;
    result->serve.requests = total;
    result->serve.wallUs = wall;
    result->serve.arrival = pipeline::arrivalKindName(spec.arrival);
    result->serve.offeredRps =
        pipeline::isOpenLoop(spec.arrival) ? spec.rateRps : 0.0;
    result->serve.coalesce = spec.maxBatch;
    result->serve.batches = stream.serviceCalls;
    result->serve.ok = stream.ok;
    result->serve.degraded = stream.degraded;
    result->serve.shed = stream.shed;
    result->serve.timeouts = stream.timeouts;
    result->serve.failed = stream.failed;
    result->serve.retries = stream.retries;
    result->serve.faultsInjected = stream.faultsInjected;

    // Per-class breakdown: lifecycle counters, latency percentiles
    // (shed excluded, same rule as the stream-wide stats) and goodput
    // over the shared stream wall — classes run interleaved, so each
    // class's useful completions are normalised by the same window.
    if (!class_plan.empty() && !stream.classIds.empty()) {
        const size_t ncls = class_plan.size();
        result->serve.classes.resize(ncls);
        std::vector<std::vector<double>> cls_latency(ncls);
        for (size_t c = 0; c < ncls; ++c) {
            ClassStats &cs = result->serve.classes[c];
            cs.name = class_plan.at(c).name;
            cs.priority = class_plan.at(c).priority;
        }
        for (size_t i = 0; i < stream.classIds.size(); ++i) {
            const size_t c =
                static_cast<size_t>(stream.classIds[i]);
            ClassStats &cs = result->serve.classes[c];
            ++cs.requests;
            switch (stream.outcomes[i]) {
            case pipeline::RequestOutcome::Ok:
                ++cs.ok;
                break;
            case pipeline::RequestOutcome::Degraded:
                ++cs.degraded;
                break;
            case pipeline::RequestOutcome::Shed:
                ++cs.shed;
                break;
            case pipeline::RequestOutcome::Timeout:
                ++cs.timeouts;
                break;
            case pipeline::RequestOutcome::Failed:
                ++cs.failed;
                break;
            }
            if (stream.outcomes[i] != pipeline::RequestOutcome::Shed)
                cls_latency[c].push_back(
                    stream.requests[i].latencyUs());
        }
        for (size_t c = 0; c < ncls; ++c) {
            ClassStats &cs = result->serve.classes[c];
            cs.latencyUs = LatencyStats::fromSamples(cls_latency[c]);
            if (wall > 0.0)
                cs.goodputRps =
                    static_cast<double>(cs.ok + cs.degraded) * 1e6 /
                    wall;
        }
    }

    result->memory.modelBytes = workload.parameterBytes();
    uint64_t dataset_bytes = 0;
    for (const data::Batch &batch : batches)
        dataset_bytes += batch.inputBytes();
    result->memory.datasetBytes = dataset_bytes;
}

} // namespace

RunResult
runOne(const RunSpec &spec)
{
    const std::string invalid = validateRunSpec(spec);
    if (!invalid.empty())
        MM_FATAL("invalid RunSpec: %s", invalid.c_str());
    const models::WorkloadEntry *entry =
        models::WorkloadRegistry::instance().find(spec.workload);
    if (!entry)
        MM_FATAL("unknown workload '%s'", spec.workload.c_str());

    std::unique_ptr<core::ScopedNumThreads> thread_guard;
    if (spec.threads > 0)
        thread_guard = std::make_unique<core::ScopedNumThreads>(
            spec.threads);

    models::WorkloadConfig config;
    config.fusionKind =
        spec.hasFusion ? spec.fusionKind : entry->defaultFusion;
    config.sizeScale = spec.sizeScale;
    config.seed = spec.seed;
    auto workload = models::WorkloadRegistry::instance().create(
        spec.workload, config);

    // Kernel fusion: install the solver configuration for the whole
    // run. A default spec installs nothing, so every pre-existing code
    // path (and its bitwise output) is untouched.
    std::unique_ptr<solver::ScopedConfig> solver_guard;
    if (spec.fuseKernels) {
        solver::Config solver_config;
        solver_config.fusionEnabled = true;
        solver_config.autotune = spec.autotune;
        solver_config.perfdbPath = solver::resolvePerfDbPath(spec.perfdb);
        solver_guard =
            std::make_unique<solver::ScopedConfig>(solver_config);
    }

    // Reduced compute dtype: installed for the whole run, before any
    // worker threads start (activeDType is a plain process global,
    // same publication rule as the solver config). A default (f32)
    // spec installs nothing.
    std::unique_ptr<tensor::DTypeScope> dtype_guard;
    if (spec.dtype != tensor::DType::F32)
        dtype_guard = std::make_unique<tensor::DTypeScope>(spec.dtype);

    RunResult result;
    fillCommon(&result, spec, *workload);
    if (spec.fuseKernels) {
        // Compile every chain's fusion plan up front (single-threaded,
        // before serve slots race for it) and publish what the planner
        // found — fused groups and explicitly unsupported combos.
        const pipeline::GraphFusionReport report =
            pipeline::collectFusionReport(*workload);
        result.solver.fusedGroups = report.fusedGroups;
        result.solver.unsupported = report.unsupported;
    }
    switch (spec.mode) {
      case RunMode::Infer:
        runInfer(spec, *workload, &result);
        break;
      case RunMode::Train:
        runTrain(spec, *workload, &result);
        break;
      case RunMode::Serve:
        runServe(spec, *workload, &result);
        break;
    }
    if (spec.fuseKernels) {
        const solver::Counters &counters = solver::counters();
        result.solver.active = true;
        result.solver.fusedOps = counters.fusedOps.load();
        result.solver.searches = counters.searches.load();
        result.solver.perfdbHits = counters.perfdbHits.load();
        result.solver.searchMs =
            static_cast<double>(counters.searchNs.load()) / 1e6;
    }
    return result;
}

RunResult
runOne(const RunSpec &spec, const std::vector<ResultSink *> &sinks)
{
    RunResult result = runOne(spec);
    for (ResultSink *sink : sinks)
        sink->write(result);
    return result;
}

std::vector<RunResult>
runSmoke(const std::vector<ResultSink *> &sinks, const RunSpec *base)
{
    std::vector<RunResult> results;
    for (const std::string &name :
         models::WorkloadRegistry::instance().names()) {
        RunSpec spec;
        if (base)
            spec = *base;
        spec.workload = name;
        // Smoke always runs the tiny geometry, whatever the template
        // says: it is a health check, not a measurement.
        spec.batch = 2;
        spec.sizeScale = 0.35f;
        spec.warmup = 1;
        spec.repeat = 2;
        if (spec.mode == RunMode::Serve && spec.requests == 0)
            spec.requests = spec.inflight * 2;
        results.push_back(runOne(spec, sinks));
    }
    return results;
}

} // namespace runner
} // namespace mmbench
