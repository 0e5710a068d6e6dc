/**
 * @file
 * Stage-graph execution tests: graph construction for every
 * registered workload, scheduler unit behavior, parallel-vs-
 * sequential bit-exactness across thread counts, trace equivalence of
 * the merged node timeline, serve-mode statistics, concurrent serve
 * slots (bitwise under mixed drop masks), the StagePipe adapter,
 * sweep-spec expansion and the serve fields of the JSON sink schema.
 *
 * CMake runs this binary with MMBENCH_NUM_THREADS=4 so the worker
 * pool has real workers even on single-core CI hosts.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include <gtest/gtest.h>

#include "core/json.hh"
#include "core/parallel.hh"
#include "models/registry.hh"
#include "pipeline/faults.hh"
#include "pipeline/graph.hh"
#include "pipeline/scheduler.hh"
#include "pipeline/serve.hh"
#include "pipeline/stagepipe.hh"
#include "profile/profiler.hh"
#include "runner/runner.hh"
#include "runner/runspec.hh"
#include "runner/sink.hh"
#include "tensor/pool.hh"
#include "trace/scope.hh"

using namespace mmbench;
using autograd::Var;
using core::JsonValue;
using pipeline::SchedPolicy;

// ------------------------------------------------------------ StageGraph

TEST(StageGraph, LevelsAndSinks)
{
    pipeline::StageGraph graph;
    auto noop = [](pipeline::ExecContext &) {};
    pipeline::StageNode a;
    a.name = "a";
    a.body = noop;
    pipeline::StageNode b = a;
    b.name = "b";
    const size_t ia = graph.addNode(std::move(a));
    const size_t ib = graph.addNode(std::move(b));
    pipeline::StageNode c;
    c.name = "c";
    c.deps = {ia, ib};
    c.body = noop;
    const size_t ic = graph.addNode(std::move(c));
    pipeline::StageNode d;
    d.name = "d";
    d.deps = {ic};
    d.body = noop;
    const size_t id = graph.addNode(std::move(d));

    EXPECT_EQ(graph.size(), 4u);
    EXPECT_EQ(graph.numLevels(), 3);
    EXPECT_EQ(graph.levelNodes(0), (std::vector<size_t>{ia, ib}));
    EXPECT_EQ(graph.levelNodes(1), (std::vector<size_t>{ic}));
    EXPECT_EQ(graph.levelNodes(2), (std::vector<size_t>{id}));
    EXPECT_EQ(graph.sinks(), (std::vector<size_t>{id}));
}

TEST(StageGraphDeathTest, ForwardDependencyPanics)
{
    pipeline::StageGraph graph;
    pipeline::StageNode n;
    n.name = "bad";
    n.deps = {3};
    n.body = [](pipeline::ExecContext &) {};
    EXPECT_DEATH(graph.addNode(std::move(n)), "topological");
}

TEST(Scheduler, PolicyNamesRoundTrip)
{
    SchedPolicy policy;
    EXPECT_TRUE(pipeline::tryParseSchedPolicy("parallel", &policy));
    EXPECT_EQ(policy, SchedPolicy::Parallel);
    EXPECT_TRUE(pipeline::tryParseSchedPolicy("SEQ", &policy));
    EXPECT_EQ(policy, SchedPolicy::Sequential);
    EXPECT_FALSE(pipeline::tryParseSchedPolicy("bogus", &policy));
    EXPECT_STREQ(pipeline::schedPolicyName(SchedPolicy::Parallel),
                 "parallel");
}

TEST(Scheduler, ExecutesAllNodesUnderBothPolicies)
{
    // slots[i] = i for leaves; join sums its dependencies.
    pipeline::StageGraph graph;
    std::vector<size_t> leaves;
    for (size_t i = 0; i < 5; ++i) {
        pipeline::StageNode leaf;
        leaf.name = "leaf";
        const size_t id = i;
        leaf.body = [id](pipeline::ExecContext &ctx) {
            ctx.slots[id] =
                Var(tensor::Tensor::full(tensor::Shape{1},
                                         static_cast<float>(id)));
        };
        leaves.push_back(graph.addNode(std::move(leaf)));
    }
    pipeline::StageNode join;
    join.name = "join";
    join.deps = leaves;
    const size_t join_id = graph.size();
    join.body = [join_id, leaves](pipeline::ExecContext &ctx) {
        float sum = 0.0f;
        for (size_t leaf : leaves)
            sum += ctx.slots[leaf].value().at(0);
        ctx.slots[join_id] =
            Var(tensor::Tensor::full(tensor::Shape{1}, sum));
    };
    graph.addNode(std::move(join));

    for (SchedPolicy policy :
         {SchedPolicy::Sequential, SchedPolicy::Parallel}) {
        pipeline::ExecContext ctx;
        pipeline::ScheduleOptions options;
        options.policy = policy;
        pipeline::GraphRun run = pipeline::runGraph(graph, ctx, options);
        ASSERT_EQ(ctx.slots.size(), graph.size());
        EXPECT_FLOAT_EQ(ctx.slots[join_id].value().at(0), 10.0f);
        ASSERT_EQ(run.nodes.size(), graph.size());
        for (const pipeline::NodeRun &node : run.nodes)
            EXPECT_GE(node.endUs, node.startUs);
    }
}

// --------------------------------------- graph construction per workload

TEST(WorkloadGraph, AllNineWorkloadsBuildTheCanonicalShape)
{
    for (const std::string &name :
         models::WorkloadRegistry::instance().names()) {
        auto w = models::WorkloadRegistry::instance().createDefault(
            name, 0.35f);
        const pipeline::StageGraph &graph = w->stageGraph();
        const size_t m = w->numModalities();
        ASSERT_EQ(graph.size(), 2 * m + 2) << name;

        for (size_t i = 0; i < m; ++i) {
            const pipeline::StageNode &pre = graph.node(2 * i);
            const pipeline::StageNode &enc = graph.node(2 * i + 1);
            const std::string mod =
                w->dataSpec().modalities[i].name;
            EXPECT_EQ(pre.name, "preprocess:" + mod) << name;
            EXPECT_EQ(pre.stage, trace::Stage::Preprocess) << name;
            EXPECT_EQ(pre.modality, static_cast<int>(i)) << name;
            EXPECT_TRUE(pre.deps.empty()) << name;
            EXPECT_EQ(enc.name, "encoder:" + mod) << name;
            EXPECT_EQ(enc.stage, trace::Stage::Encoder) << name;
            EXPECT_EQ(enc.modality, static_cast<int>(i)) << name;
            EXPECT_EQ(enc.deps, (std::vector<size_t>{2 * i})) << name;
        }
        const pipeline::StageNode &fuse = graph.node(2 * m);
        EXPECT_EQ(fuse.name, "fusion") << name;
        EXPECT_EQ(fuse.stage, trace::Stage::Fusion) << name;
        EXPECT_EQ(fuse.deps.size(), m) << name;
        const pipeline::StageNode &head = graph.node(2 * m + 1);
        EXPECT_EQ(head.name, "head") << name;
        EXPECT_EQ(head.stage, trace::Stage::Head) << name;
        // Every encoder is at level 1: the encoders form one parallel
        // wave, fusion is the join, the head is the only sink.
        EXPECT_EQ(graph.numLevels(), 4) << name;
        EXPECT_EQ(graph.sinks(), (std::vector<size_t>{2 * m + 1}))
            << name;
    }
}

// -------------------------------------------- bit-exactness across policies

namespace {

/** Forward under a policy and thread count; returns the output. */
tensor::Tensor
forwardWith(models::MultiModalWorkload &workload,
            const data::Batch &batch, SchedPolicy policy, int threads)
{
    core::ScopedNumThreads guard(threads);
    autograd::NoGradGuard no_grad;
    return workload.forward(batch, policy).value();
}

void
expectBitwiseEqual(const tensor::Tensor &a, const tensor::Tensor &b,
                   const std::string &what)
{
    ASSERT_EQ(a.numel(), b.numel()) << what;
    ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                             static_cast<size_t>(a.numel()) *
                                 sizeof(float)))
        << what;
}

} // namespace

TEST(SchedulerDeterminism, ParallelMatchesSequentialBitwiseAllWorkloads)
{
    // Every registered workload, scaled down so the full matrix
    // stays fast. The serial single-thread pass is the pre-refactor
    // reference schedule.
    for (const std::string &name :
         models::WorkloadRegistry::instance().names()) {
        auto w = models::WorkloadRegistry::instance().createDefault(
            name, 0.35f);
        w->train(false);
        auto task = w->makeTask(7);
        data::Batch batch = task.sample(2);

        const tensor::Tensor reference =
            forwardWith(*w, batch, SchedPolicy::Sequential, 1);
        for (int threads : {1, 4}) {
            expectBitwiseEqual(
                reference,
                forwardWith(*w, batch, SchedPolicy::Sequential, threads),
                name + " sequential t" + std::to_string(threads));
            expectBitwiseEqual(
                reference,
                forwardWith(*w, batch, SchedPolicy::Parallel, threads),
                name + " parallel t" + std::to_string(threads));
        }

        // Task metrics follow from identical outputs.
        const double metric = w->metric(reference, batch.targets);
        const tensor::Tensor par =
            forwardWith(*w, batch, SchedPolicy::Parallel, 4);
        EXPECT_DOUBLE_EQ(metric, w->metric(par, batch.targets)) << name;
    }
}

TEST(SchedulerDeterminism, MoreThreadsThanEncoders)
{
    // Thread counts exceeding both the encoder count and the pool
    // maximum must clamp, not misbehave.
    auto w = models::WorkloadRegistry::instance().createDefault(
        "mujoco-push", 0.35f);
    w->train(false);
    auto task = w->makeTask(9);
    data::Batch batch = task.sample(2);
    const tensor::Tensor reference =
        forwardWith(*w, batch, SchedPolicy::Sequential, 1);
    expectBitwiseEqual(reference,
                       forwardWith(*w, batch, SchedPolicy::Parallel, 64),
                       "mujoco-push parallel t64");
}

// --------------------------------------------- node-timeline equivalence

TEST(NodeTimeline, MergedTraceMatchesAmbientForward)
{
    auto w = models::WorkloadRegistry::instance().createDefault(
        "av-mnist", 0.35f);
    w->train(false);
    auto task = w->makeTask(11);
    data::Batch batch = task.sample(2);

    // Historical path: one ambient sink around the sequential pass.
    trace::RecordingSink ambient;
    {
        trace::ScopedSink guard(ambient);
        autograd::NoGradGuard no_grad;
        w->forward(batch);
    }

    for (SchedPolicy policy :
         {SchedPolicy::Sequential, SchedPolicy::Parallel}) {
        pipeline::ScheduleOptions options;
        options.policy = policy;
        options.captureTraces = true;
        pipeline::GraphRun run;
        {
            autograd::NoGradGuard no_grad;
            w->forwardGraph(batch, options, &run);
        }
        pipeline::NodeTraceIndex index;
        trace::RecordingSink merged =
            pipeline::mergeNodeTraces(run, &index);

        ASSERT_EQ(merged.kernels.size(), ambient.kernels.size());
        ASSERT_EQ(merged.runtimes.size(), ambient.runtimes.size());
        ASSERT_EQ(merged.unified.size(), ambient.unified.size());
        for (size_t i = 0; i < merged.kernels.size(); ++i) {
            EXPECT_STREQ(merged.kernels[i].name, ambient.kernels[i].name);
            EXPECT_EQ(merged.kernels[i].stage, ambient.kernels[i].stage);
            EXPECT_EQ(merged.kernels[i].modality,
                      ambient.kernels[i].modality);
            EXPECT_EQ(merged.kernels[i].flops, ambient.kernels[i].flops);
        }
        for (size_t i = 0; i < merged.runtimes.size(); ++i) {
            EXPECT_EQ(merged.runtimes[i].kind, ambient.runtimes[i].kind);
            EXPECT_EQ(merged.runtimes[i].stage,
                      ambient.runtimes[i].stage);
        }
        for (size_t i = 0; i < merged.unified.size(); ++i) {
            EXPECT_EQ(merged.unified[i].kind, ambient.unified[i].kind);
            EXPECT_EQ(merged.unified[i].index, ambient.unified[i].index);
        }
        // Boundaries cover the whole stream, one range per node.
        ASSERT_EQ(index.kernelStart.size(), run.nodes.size() + 1);
        EXPECT_EQ(index.kernelStart.back(), merged.kernels.size());
        EXPECT_EQ(index.runtimeStart.back(), merged.runtimes.size());
    }
}

TEST(NodeTimeline, ProfilerAttributesStagesPerNode)
{
    auto w = models::WorkloadRegistry::instance().createDefault(
        "av-mnist", 0.35f);
    auto task = w->makeTask(3);
    data::Batch batch = task.sample(2);

    profile::Profiler profiler(sim::DeviceModel::rtx2080ti());
    profile::ProfileResult seq =
        profiler.profileGraph(*w, batch, SchedPolicy::Sequential);
    profile::ProfileResult par =
        profiler.profileGraph(*w, batch, SchedPolicy::Parallel);

    ASSERT_EQ(seq.nodes.size(), w->stageGraph().size());
    // Encoder nodes carry device time; preprocess nodes only host ops.
    double encoder_gpu = 0.0;
    for (const profile::NodeProfile &np : seq.nodes) {
        if (np.stage == trace::Stage::Encoder) {
            EXPECT_GT(np.gpuUs, 0.0) << np.name;
            encoder_gpu += np.gpuUs;
        }
        if (np.stage == trace::Stage::Preprocess)
            EXPECT_EQ(np.gpuUs, 0.0) << np.name;
        EXPECT_GE(np.hostUs, 0.0) << np.name;
    }
    // Node attribution is a partition of the replayed timeline.
    double node_gpu = 0.0;
    for (const profile::NodeProfile &np : seq.nodes)
        node_gpu += np.gpuUs;
    EXPECT_DOUBLE_EQ(node_gpu, seq.timeline.gpuBusyUs);
    EXPECT_GT(encoder_gpu, 0.0);

    // The simulated timeline is policy-independent: the replay
    // consumes the canonical merged node stream either way.
    EXPECT_DOUBLE_EQ(seq.timeline.totalUs, par.timeline.totalUs);
    EXPECT_DOUBLE_EQ(seq.timeline.gpuBusyUs, par.timeline.gpuBusyUs);
}

// ------------------------------------------------------------ serve mode

TEST(ServeMode, StatsAndThroughputMonotonicity)
{
    // Enough requests that the faster, 4-slot side runs for about
    // 50 ms (a few ms would let one preemption flip the ratio), and
    // the claim is judged on medians of 3 alternating runs per side.
    constexpr int kRequests = 1600;
    runner::RunSpec spec;
    spec.workload = "av-mnist";
    spec.mode = runner::RunMode::Serve;
    spec.batch = 2;
    spec.sizeScale = 0.35f;
    spec.requests = kRequests;

    std::vector<double> serial_sps, concurrent_sps;
    int concurrent_slots = 0;
    for (int round = 0; round < 3; ++round) {
        for (int side = 0; side < 2; ++side) {
            // Even rounds run serial first, odd rounds concurrent
            // first, so neither side always meets the warmer host.
            const bool serial = (side == 0) == (round % 2 == 0);
            spec.inflight = serial ? 1 : 4;
            const runner::RunResult r = runner::runOne(spec);
            EXPECT_EQ(r.hostLatencyUs.count, kRequests);
            EXPECT_GT(r.hostLatencyUs.p50, 0.0);
            EXPECT_GT(r.throughputSps, 0.0);
            EXPECT_EQ(r.serve.requests, kRequests);
            EXPECT_GT(r.serve.wallUs, 0.0);
            EXPECT_TRUE(r.hasMetric);
            if (serial) {
                EXPECT_EQ(r.serve.inflight, 1);
                serial_sps.push_back(r.throughputSps);
            } else {
                EXPECT_GE(r.serve.inflight, 1);
                concurrent_slots = r.serve.inflight;
                concurrent_sps.push_back(r.throughputSps);
            }
        }
    }

    // Monotonicity: more in-flight slots must not lose throughput.
    // The 0.85 slack absorbs scheduler noise on loaded CI hosts; with
    // 4 pool threads the observed ratio is typically 2-3x.
    const auto median3 = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v[1];
    };
    if (concurrent_slots > 1) {
        EXPECT_GE(median3(concurrent_sps), 0.85 * median3(serial_sps));
    }
}

TEST(ServeMode, JsonSchemaCarriesServeFields)
{
    runner::RunSpec spec;
    spec.workload = "av-mnist";
    spec.mode = runner::RunMode::Serve;
    spec.batch = 2;
    spec.sizeScale = 0.35f;
    spec.inflight = 2;
    spec.requests = 4;

    const std::string path =
        ::testing::TempDir() + "/mmbench_test_pipeline.jsonl";
    std::remove(path.c_str());
    {
        runner::JsonlSink sink(path);
        std::vector<runner::ResultSink *> sinks = {&sink};
        runner::runOne(spec, sinks);
        sink.flush();
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    std::remove(path.c_str());

    std::string error;
    const JsonValue record = JsonValue::parse(line, &error);
    ASSERT_TRUE(error.empty()) << error;

    EXPECT_EQ(record.find("schema")->stringValue(), "mmbench-result-v1");
    const JsonValue *spec_json = record.find("spec");
    ASSERT_NE(spec_json, nullptr);
    EXPECT_EQ(spec_json->find("mode")->stringValue(), "serve");
    EXPECT_EQ(spec_json->find("sched")->stringValue(), "sequential");
    EXPECT_EQ(spec_json->find("inflight")->intValue(), 2);
    EXPECT_EQ(spec_json->find("requests")->intValue(), 4);

    const JsonValue *serve = record.find("serve");
    ASSERT_NE(serve, nullptr);
    for (const char *key :
         {"inflight", "requests", "wall_us", "arrival", "offered_rps",
          "achieved_rps", "coalesce", "batches", "queue_us",
          "service_us"})
        EXPECT_TRUE(serve->has(key)) << key;
    EXPECT_EQ(serve->find("requests")->intValue(), 4);
    EXPECT_GT(serve->find("wall_us")->numberValue(), 0.0);
    EXPECT_EQ(record.find("latency_us")->find("count")->intValue(), 4);

    // Closed loop: no queue, no offered rate, one batch per request.
    EXPECT_EQ(serve->find("arrival")->stringValue(), "closed");
    EXPECT_DOUBLE_EQ(serve->find("offered_rps")->numberValue(), 0.0);
    EXPECT_GT(serve->find("achieved_rps")->numberValue(), 0.0);
    EXPECT_EQ(serve->find("batches")->intValue(), 4);
    const JsonValue *queue = serve->find("queue_us");
    for (const char *key :
         {"p50", "p95", "p99", "mean", "min", "max", "count"})
        EXPECT_TRUE(queue->has(key)) << key;
    EXPECT_EQ(queue->find("count")->intValue(), 4);
    EXPECT_DOUBLE_EQ(queue->find("max")->numberValue(), 0.0);
    EXPECT_GT(serve->find("service_us")->find("p50")->numberValue(),
              0.0);

    // Spec block round-trips the arrival configuration.
    for (const char *key : {"arrival", "rate_rps", "coalesce"})
        EXPECT_TRUE(spec_json->has(key)) << key;
    EXPECT_EQ(spec_json->find("arrival")->stringValue(), "closed");
}

TEST(ServeMode, OpenLoopJsonSchemaCarriesQueueFields)
{
    runner::RunSpec spec;
    spec.workload = "av-mnist";
    spec.mode = runner::RunMode::Serve;
    spec.batch = 2;
    spec.sizeScale = 0.35f;
    spec.inflight = 2;
    spec.requests = 6;
    spec.arrival = pipeline::ArrivalKind::Poisson;
    spec.rateRps = 400.0;

    const std::string path =
        ::testing::TempDir() + "/mmbench_test_pipeline_open.jsonl";
    std::remove(path.c_str());
    {
        runner::JsonlSink sink(path);
        std::vector<runner::ResultSink *> sinks = {&sink};
        runner::runOne(spec, sinks);
        sink.flush();
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    std::remove(path.c_str());

    std::string error;
    const JsonValue record = JsonValue::parse(line, &error);
    ASSERT_TRUE(error.empty()) << error;
    const JsonValue *spec_json = record.find("spec");
    ASSERT_NE(spec_json, nullptr);
    EXPECT_EQ(spec_json->find("arrival")->stringValue(), "poisson");
    EXPECT_DOUBLE_EQ(spec_json->find("rate_rps")->numberValue(), 400.0);

    const JsonValue *serve = record.find("serve");
    ASSERT_NE(serve, nullptr);
    EXPECT_EQ(serve->find("arrival")->stringValue(), "poisson");
    EXPECT_DOUBLE_EQ(serve->find("offered_rps")->numberValue(), 400.0);
    EXPECT_GT(serve->find("achieved_rps")->numberValue(), 0.0);
    EXPECT_EQ(serve->find("queue_us")->find("count")->intValue(), 6);
    EXPECT_GE(serve->find("queue_us")->find("min")->numberValue(), 0.0);
    EXPECT_GT(serve->find("service_us")->find("p50")->numberValue(),
              0.0);
}

TEST(ServeMode, DefaultScheduleOptionsCaptureNoTraces)
{
    // Regression pin for the serve hot path: ScheduleOptions defaults
    // to captureTraces = false, and an uncaptured run must leave every
    // per-node trace sink empty — serve requests allocate no trace
    // storage.
    EXPECT_FALSE(pipeline::ScheduleOptions().captureTraces);

    auto workload = models::WorkloadRegistry::instance().createDefault(
        "av-mnist", 0.35f);
    auto task = workload->makeTask(5);
    data::Batch batch = task.sample(2);
    workload->train(false);

    autograd::NoGradGuard no_grad;
    pipeline::ScheduleOptions options; // serve-path defaults
    pipeline::GraphRun run;
    workload->forwardGraph(batch, options, &run);
    ASSERT_FALSE(run.nodes.empty());
    for (const pipeline::NodeRun &node : run.nodes) {
        EXPECT_TRUE(node.trace.kernels.empty());
        EXPECT_TRUE(node.trace.runtimes.empty());
        EXPECT_TRUE(node.trace.allocs.empty());
        EXPECT_TRUE(node.trace.unified.empty());
    }
}

TEST(InferMode, JsonSchemaCarriesNodeTimeline)
{
    runner::RunSpec spec;
    spec.workload = "av-mnist";
    spec.batch = 2;
    spec.sizeScale = 0.35f;
    spec.warmup = 0;
    spec.repeat = 1;
    spec.sched = SchedPolicy::Parallel;

    const std::string path =
        ::testing::TempDir() + "/mmbench_test_pipeline_infer.jsonl";
    std::remove(path.c_str());
    {
        runner::JsonlSink sink(path);
        std::vector<runner::ResultSink *> sinks = {&sink};
        runner::runOne(spec, sinks);
        sink.flush();
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    std::remove(path.c_str());

    std::string error;
    const JsonValue record = JsonValue::parse(line, &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(record.find("spec")->find("sched")->stringValue(),
              "parallel");
    const JsonValue *nodes = record.find("nodes");
    ASSERT_NE(nodes, nullptr);
    ASSERT_EQ(nodes->size(), 6u); // av-mnist: 2*(pre+enc) + fusion + head
    EXPECT_EQ(nodes->at(0).find("name")->stringValue(),
              "preprocess:image");
    EXPECT_EQ(nodes->at(5).find("name")->stringValue(), "head");
    for (const char *key :
         {"name", "stage", "modality", "host_us", "gpu_us", "cpu_us"})
        EXPECT_TRUE(nodes->at(1).has(key)) << key;
    EXPECT_GT(nodes->at(1).find("gpu_us")->numberValue(), 0.0);
}

// ------------------------------------------------------------ spec sweeps

TEST(RunSpecSweep, CommaListsExpandToCrossProduct)
{
    std::vector<runner::RunSpec> specs;
    std::string error;
    ASSERT_TRUE(runner::parseRunSpecs(
        {"--workload", "av-mnist", "--batch", "8,64,256", "--threads",
         "1,4", "--scale", "0.5"},
        &specs, &error))
        << error;
    ASSERT_EQ(specs.size(), 6u);
    // Batch-major, then threads, then scale.
    EXPECT_EQ(specs[0].batch, 8);
    EXPECT_EQ(specs[0].threads, 1);
    EXPECT_EQ(specs[1].batch, 8);
    EXPECT_EQ(specs[1].threads, 4);
    EXPECT_EQ(specs[4].batch, 256);
    EXPECT_EQ(specs[4].threads, 1);
    for (const runner::RunSpec &spec : specs) {
        EXPECT_EQ(spec.workload, "av-mnist");
        EXPECT_FLOAT_EQ(spec.sizeScale, 0.5f);
    }
}

TEST(RunSpecSweep, SingleValuesYieldOneSpec)
{
    std::vector<runner::RunSpec> specs;
    std::string error;
    ASSERT_TRUE(runner::parseRunSpecs(
        {"--workload", "transfuser", "--batch", "4"}, &specs, &error))
        << error;
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].batch, 4);
}

TEST(RunSpecSweep, MalformedListEntriesFail)
{
    std::vector<runner::RunSpec> specs;
    std::string error;
    EXPECT_FALSE(runner::parseRunSpecs(
        {"--workload", "av-mnist", "--batch", "8,,16"}, &specs, &error));
    EXPECT_NE(error.find("--batch"), std::string::npos);
    EXPECT_FALSE(runner::parseRunSpecs(
        {"--workload", "av-mnist", "--batch", "8,x"}, &specs, &error));
}

TEST(RunSpecParse, ServeFlagsParse)
{
    runner::RunSpec spec;
    std::string error;
    ASSERT_TRUE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--mode", "serve", "--inflight", "8",
         "--requests", "32"},
        &spec, &error))
        << error;
    EXPECT_EQ(spec.mode, runner::RunMode::Serve);
    EXPECT_EQ(spec.sched, SchedPolicy::Sequential);
    EXPECT_EQ(spec.inflight, 8);
    EXPECT_EQ(spec.requests, 32);
    EXPECT_EQ(spec.serveRequests(), 32);

    // The intra-request parallel policy never runs in serve mode;
    // the combination is rejected instead of silently mislabeled.
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--mode", "serve", "--sched",
         "parallel"},
        &spec, &error));
    EXPECT_NE(error.find("serve"), std::string::npos);

    // Infer mode still accepts the parallel policy, whatever the
    // flag order.
    runner::RunSpec infer;
    ASSERT_TRUE(runner::parseRunSpec(
        {"--sched", "parallel", "--workload", "av-mnist"}, &infer,
        &error))
        << error;
    EXPECT_EQ(infer.sched, SchedPolicy::Parallel);
}

TEST(RunSpecParse, DeviceErrorEnumeratesAliases)
{
    runner::RunSpec spec;
    std::string error;
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--device", "tpu"}, &spec, &error));
    // The single alias table feeds both validation and the message.
    for (const char *alias :
         {"2080ti", "rtx2080ti", "server", "nano", "jetson-nano",
          "orin", "jetson-orin"}) {
        EXPECT_NE(error.find(alias), std::string::npos) << alias;
        EXPECT_TRUE(runner::isKnownDevice(alias)) << alias;
    }
}

TEST(RunSpecParse, TemplateAllowsMissingWorkload)
{
    runner::RunSpec spec;
    std::string error;
    ASSERT_TRUE(runner::parseRunSpecTemplate(
        {"--mode", "serve", "--inflight", "4"}, &spec, &error))
        << error;
    EXPECT_TRUE(spec.workload.empty());
    EXPECT_EQ(spec.mode, runner::RunMode::Serve);
    // Unknown workloads still fail.
    EXPECT_FALSE(runner::parseRunSpecTemplate(
        {"--workload", "nope"}, &spec, &error));
}

// ------------------------------------------------------ concurrent serve

namespace {

/**
 * Serve `batches` the way runServe's slots do: a closed-loop stream on
 * `threads` slots, each slot running its request through forwardGraph
 * on its own thread (sequential policy, grad off, a per-request arena
 * scope) under the request's drop mask. Returns each request's output;
 * *pruned receives each request's pruned-node count.
 */
std::vector<tensor::Tensor>
serveThroughSlots(models::MultiModalWorkload &w,
                  const std::vector<data::Batch> &batches,
                  const std::vector<uint32_t> &masks, int threads,
                  std::vector<int> *pruned)
{
    const int total = static_cast<int>(batches.size());
    std::vector<tensor::Tensor> outputs(batches.size());
    pruned->assign(batches.size(), -1);
    core::ScopedNumThreads guard(threads);
    pipeline::ServeLoopOptions loop;
    loop.inflight = threads;
    const pipeline::ServeLoopResult stream = pipeline::runServeLoop(
        total, loop, [&](const pipeline::ServiceCall &call) {
            tensor::RequestArenaScope arena;
            autograd::NoGradGuard no_grad;
            const size_t r = static_cast<size_t>(call.first);
            pipeline::ScheduleOptions opts;
            opts.dropMask = masks[r];
            pipeline::GraphRun run;
            outputs[r] = w.forwardGraph(batches[r], opts, &run).value();
            (*pruned)[r] = run.prunedNodes;
            return pipeline::ServiceResult{};
        });
    EXPECT_EQ(stream.ok, total);
    return outputs;
}

int
popcount(uint32_t mask)
{
    int n = 0;
    for (; mask != 0; mask &= mask - 1)
        ++n;
    return n;
}

} // namespace

TEST(ConcurrentServe, SlotsMatchTheSerialForwardAcrossThreadCounts)
{
    // Serve slots run their requests' graphs concurrently, sharing the
    // workload, its graph and its memory plan. Node bodies are
    // deterministic functions of their slot inputs, so every request's
    // output must stay bitwise identical to a one-thread forward,
    // whatever the slot count.
    for (const char *name : {"transfuser", "medical-seg"}) {
        auto w = models::WorkloadRegistry::instance().createDefault(
            name, 0.35f);
        w->train(false);
        auto task = w->makeTask(11);
        const int requests = 8;
        std::vector<data::Batch> batches;
        for (int r = 0; r < requests; ++r)
            batches.push_back(task.sample(2));

        std::vector<tensor::Tensor> reference;
        for (const data::Batch &b : batches)
            reference.push_back(
                forwardWith(*w, b, SchedPolicy::Sequential, 1));
        // Lazy plan construction is single-threaded by contract: prime
        // it before requests race, as runServe does.
        w->memoryPlan(SchedPolicy::Sequential);

        const std::vector<uint32_t> masks(requests, 0u);
        for (int threads : {1, 4}) {
            std::vector<int> pruned;
            const std::vector<tensor::Tensor> outputs =
                serveThroughSlots(*w, batches, masks, threads, &pruned);
            for (int r = 0; r < requests; ++r) {
                const size_t k = static_cast<size_t>(r);
                expectBitwiseEqual(reference[k], outputs[k],
                                   std::string(name) + " t" +
                                       std::to_string(threads) + " r" +
                                       std::to_string(r));
                EXPECT_EQ(pruned[k], 0);
            }
        }
    }
}

TEST(ConcurrentServe, MixedDropMasksUnderContentionStayBitwise)
{
    // Requests with different drop masks run side by side on the
    // slots. Each must prune exactly its dropped modalities'
    // preprocess + encoder nodes and answer bitwise like its serial
    // degraded forward.
    for (const char *name : {"transfuser", "medical-seg"}) {
        auto w = models::WorkloadRegistry::instance().createDefault(
            name, 0.35f);
        w->train(false);
        w->primeDegraded();
        auto task = w->makeTask(19);
        // 0b0110 drops two of medical-seg's four sequences (T1c, T2)
        // and only the second of transfuser's two modalities.
        const uint32_t live = (1u << w->numModalities()) - 1u;
        const std::vector<uint32_t> masks = {
            0, 0, 0b0010, 0, 0b0010, 0b0110u & live, 0, 0b0010};
        const int requests = static_cast<int>(masks.size());
        std::vector<data::Batch> batches;
        for (int r = 0; r < requests; ++r)
            batches.push_back(task.sample(2));

        std::vector<tensor::Tensor> reference;
        for (int r = 0; r < requests; ++r) {
            autograd::NoGradGuard no_grad;
            pipeline::ScheduleOptions opts;
            opts.dropMask = masks[static_cast<size_t>(r)];
            reference.push_back(
                w->forwardGraph(batches[static_cast<size_t>(r)], opts)
                    .value());
        }

        for (int threads : {1, 4}) {
            std::vector<int> pruned;
            const std::vector<tensor::Tensor> outputs =
                serveThroughSlots(*w, batches, masks, threads, &pruned);
            for (int r = 0; r < requests; ++r) {
                const size_t k = static_cast<size_t>(r);
                expectBitwiseEqual(reference[k], outputs[k],
                                   std::string(name) + " mixed masks t" +
                                       std::to_string(threads) + " r" +
                                       std::to_string(r));
                EXPECT_EQ(pruned[k], 2 * popcount(masks[k]))
                    << name << " r" << r;
            }
        }
    }
}

TEST(Scheduler, InjectedFailureThrowsAndLeavesTheWorkloadReusable)
{
    // A fail fault throws FaultError out of forwardGraph, stamped with
    // the node and the (request, attempt) it was rolled on; the next
    // request on the same workload runs clean.
    auto w = models::WorkloadRegistry::instance().createDefault(
        "av-mnist", 0.35f);
    w->train(false);
    auto task = w->makeTask(3);
    data::Batch batch = task.sample(2);
    const tensor::Tensor reference =
        forwardWith(*w, batch, SchedPolicy::Sequential, 1);

    pipeline::FaultPlan plan;
    std::string error;
    ASSERT_TRUE(pipeline::parseFaultPlan("fail:node=fusion:p=1", 5,
                                         &plan, &error))
        << error;

    autograd::NoGradGuard no_grad;
    pipeline::ScheduleOptions opts;
    opts.faults = &plan;
    opts.faultRequest = 7;
    opts.faultAttempt = 2;
    bool thrown = false;
    try {
        w->forwardGraph(batch, opts);
    } catch (const pipeline::FaultError &e) {
        thrown = true;
        EXPECT_EQ(e.node(), "fusion");
        EXPECT_EQ(e.request(), 7);
        EXPECT_EQ(e.attempt(), 2);
    }
    EXPECT_TRUE(thrown);
    expectBitwiseEqual(
        reference, w->forwardGraph(batch, pipeline::ScheduleOptions())
                       .value(),
        "clean request after a failed one");
}

// ------------------------------------------------- StagePipe adapter

TEST(StagePipe, AdapterMatchesForwardGraphUnderEightCallers)
{
    // StagePipe survives only as an adapter over runGraph. Eight
    // threads call it at once, as the benchmark's output check does,
    // and each answer must equal forwardGraph's bitwise.
    constexpr int kCallers = 8;
    for (const char *name : {"transfuser", "medical-seg"}) {
        auto w = models::WorkloadRegistry::instance().createDefault(
            name, 0.35f);
        w->train(false);
        auto task = w->makeTask(23);
        std::vector<data::Batch> batches;
        std::vector<tensor::Tensor> expect;
        for (int i = 0; i < kCallers; ++i) {
            batches.push_back(task.sample(2));
            expect.push_back(forwardWith(*w, batches.back(),
                                         SchedPolicy::Sequential, 1));
        }

        const pipeline::StagePipe pipe(
            w->stageGraph(), &w->memoryPlan(SchedPolicy::Parallel),
            w->stashSlots());
        const std::string tag =
            fusion::fusionKindName(w->config().fusionKind);
        std::vector<tensor::Tensor> got(kCallers);
        std::vector<std::thread> callers;
        for (int i = 0; i < kCallers; ++i) {
            callers.emplace_back([&, i] {
                const size_t k = static_cast<size_t>(i);
                autograd::NoGradGuard no_grad;
                tensor::RequestArenaScope arena;
                pipeline::PipeRequest request;
                request.batch = &batches[k];
                request.tag = tag;
                got[k] = pipe.execute(request).output.value();
            });
        }
        for (std::thread &caller : callers)
            caller.join();
        for (int i = 0; i < kCallers; ++i)
            expectBitwiseEqual(expect[static_cast<size_t>(i)],
                               got[static_cast<size_t>(i)],
                               std::string(name) + " caller " +
                                   std::to_string(i));
    }
}
