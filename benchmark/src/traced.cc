#include <algorithm>
#include <cctype>
#include <fstream>
#include <thread>

#include "bench.hh"
#include "core/parallel.hh"
#include "pipeline/stagepipe.hh"
#include "profile/profiler.hh"
#include "sim/device.hh"
#include "tensor/ops.hh"
#include "tensor/pool.hh"
#include "trace/sink.hh"

namespace perfbench {

namespace mm = mmbench;
namespace tr = mmbench::trace;

namespace {

constexpr int kClasses = static_cast<int>(tr::KernelClass::NumClasses);
constexpr int kTopOps = 8;
/** Traced passes whose spans go to trace.json. */
constexpr int kChromePasses = 3;
/** Every timed loop runs at least this many iterations. */
constexpr int kMinIterations = 5;
const tr::Stage kStages[] = {tr::Stage::Preprocess, tr::Stage::Encoder,
                             tr::Stage::Fusion, tr::Stage::Head};
constexpr int kNumStages = 4;

std::string
className(int c)
{
    std::string s = tr::kernelClassName(static_cast<tr::KernelClass>(c));
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char ch) { return std::tolower(ch); });
    return s;
}

/**
 * Timestamps every kernel and runtime event emitted on the thread it
 * is installed on. Kernels emit when they complete (after their
 * parallelFor), so a kernel's self time is the gap since the previous
 * event, clipped to the start of the node it ran in.
 */
class EventClock : public tr::Sink
{
  public:
    struct Event
    {
        double us = 0.0;
        bool kernel = false;
        tr::KernelClass kclass = tr::KernelClass::Other;
        const char *name = "";
        double flops = 0.0;
        double bytes = 0.0; ///< read + written, from tensor sizes
    };

    void onKernel(const tr::KernelEvent &ev) override
    {
        events.push_back({nowUs(), true, ev.kclass, ev.name,
                          static_cast<double>(ev.flops),
                          static_cast<double>(ev.bytesRead +
                                              ev.bytesWritten)});
    }
    void onRuntime(const tr::RuntimeEvent &ev) override
    {
        events.push_back({nowUs(), false, tr::KernelClass::Other, ev.name,
                          0.0, 0.0});
    }
    void onAlloc(const tr::AllocEvent &) override {}

    std::vector<Event> events;
};

/** Self times of the traced passes, one entry per pass. */
struct Accumulator
{
    std::vector<double> stageMs[kNumStages];
    std::vector<double> schedMs;
    std::vector<double> kernelMs;
    std::vector<double> classMs[kClasses];
    std::vector<double> classShare[kClasses];
    double classUs[kClasses] = {};
    double classFlops[kClasses] = {};
    double classBytes[kClasses] = {};
    std::map<std::string, std::vector<double>> opMs;
    int64_t kernels = 0;
    int passes = 0;
};

/** Attribute one traced pass's events to kernels, nodes and stages. */
void
account(const mm::pipeline::StageGraph &graph,
        const mm::pipeline::GraphRun &run,
        const std::vector<EventClock::Event> &events, double pass_start,
        double pass_end, Accumulator *acc, ChromeTrace *chrome, int pid)
{
    if (chrome)
        chrome->span(pid, "forward", "pass", pass_start, pass_end,
                     JsonValue::object());
    double stage_us[kNumStages] = {};
    double nodes_us = 0.0;
    for (size_t id = 0; id < graph.size(); ++id) {
        const mm::pipeline::NodeRun &node = run.nodes[id];
        const mm::pipeline::StageNode &def = graph.node(id);
        nodes_us += node.hostUs();
        for (int s = 0; s < kNumStages; ++s) {
            if (def.stage == kStages[s])
                stage_us[s] += node.hostUs();
        }
        if (chrome) {
            chrome->span(pid, tr::stageName(def.stage), "stage",
                         node.startUs, node.endUs, JsonValue::object());
            chrome->span(pid, def.name, "node", node.startUs, node.endUs,
                         JsonValue::object());
        }
    }
    for (int s = 0; s < kNumStages; ++s)
        acc->stageMs[s].push_back(stage_us[s] / 1e3);
    acc->schedMs.push_back((run.totalUs - nodes_us) / 1e3);

    double class_us[kClasses] = {};
    std::map<std::string, double> op_us;
    size_t node = 0;
    double prev = pass_start;
    for (const EventClock::Event &e : events) {
        // Nodes run one after another under the sequential policy, so
        // the node holding an event is the first one ending after it.
        while (node + 1 < run.nodes.size() && e.us > run.nodes[node].endUs)
            ++node;
        const double from = std::max(prev, run.nodes[node].startUs);
        prev = e.us;
        if (!e.kernel)
            continue;
        const int c = static_cast<int>(e.kclass);
        const double self = std::max(0.0, e.us - from);
        class_us[c] += self;
        op_us[e.name] += self;
        acc->classUs[c] += self;
        acc->classFlops[c] += e.flops;
        acc->classBytes[c] += e.bytes;
        ++acc->kernels;
        if (chrome) {
            JsonValue args = JsonValue::object();
            args.set("class", className(c));
            args.set("flops", e.flops);
            args.set("bytes", e.bytes);
            chrome->span(pid, e.name, "kernel", from, e.us, args);
        }
    }
    double total_us = 0.0;
    for (double us : class_us)
        total_us += us;
    acc->kernelMs.push_back(total_us / 1e3);
    for (int c = 0; c < kClasses; ++c) {
        acc->classMs[c].push_back(class_us[c] / 1e3);
        acc->classShare[c].push_back(total_us > 0.0 ? class_us[c] / total_us
                                                    : 0.0);
    }
    for (const auto &[name, us] : op_us) {
        std::vector<double> &series = acc->opMs[name];
        series.resize(static_cast<size_t>(acc->passes), 0.0);
        series.push_back(us / 1e3);
    }
    ++acc->passes;
}

template <typename Fn>
double
timedUs(Fn &&fn)
{
    const double t0 = nowUs();
    fn();
    return nowUs() - t0;
}

/**
 * Run `body(i)` for i = 0, 1, ... at most `max` times, stopping early
 * once `budget_us` has passed and kMinIterations have run.
 */
template <typename Fn>
void
timedLoop(int max, double budget_us, Fn &&body)
{
    const double start = nowUs();
    for (int i = 0; i < max; ++i) {
        if (i >= kMinIterations && nowUs() - start >= budget_us)
            break;
        body(i);
    }
}

} // namespace

TracedResult
runTraced(const WorkloadDef &def, const Options &opt, double seconds,
          ChromeTrace *chrome, int pid)
{
    TracedResult result;
    mm::core::ScopedNumThreads threads(def.threads);
    auto model = makeModel(def, opt.seed, def.batch);
    for (int i = 0; i < 2; ++i)
        model->forward();
    mm::models::MultiModalWorkload &net = *model->net;
    const mm::pipeline::StageGraph &graph = net.stageGraph();
    mm::tensor::MemoryPool &pool = mm::tensor::MemoryPool::instance();
    const double budget_us = seconds * 1e6;
    const auto forward_us = [&] { return timedUs([&] { model->forward(); }); };

    // Untraced and traced passes alternate, so drift hits both alike;
    // their ratio is the tracing overhead.
    Accumulator acc;
    std::vector<double> untraced_us, traced_us;
    double pool_requests = 0.0, pool_hits = 0.0;
    EventClock clock;
    clock.events.reserve(1 << 14);
    const auto untraced = [&] {
        const mm::tensor::PoolStats before = pool.stats();
        untraced_us.push_back(forward_us());
        const mm::tensor::PoolStats after = pool.stats();
        pool_requests += static_cast<double>(after.requests - before.requests);
        pool_hits += static_cast<double>(after.poolHits - before.poolHits);
    };
    const auto traced = [&](int i) {
        clock.events.clear();
        mm::pipeline::GraphRun run;
        double t0 = 0.0;
        {
            tr::ScopedSink sink(clock);
            t0 = nowUs();
            model->forward(&run);
        }
        const double t1 = nowUs();
        traced_us.push_back(t1 - t0);
        account(graph, run, clock.events, t0, t1, &acc,
                i < kChromePasses ? chrome : nullptr, pid);
    };
    timedLoop(opt.quick ? kMinIterations : 50, 0.35 * budget_us,
              [&](int i) {
                  if (i % 2 == 0) {
                      untraced();
                      traced(i);
                  } else {
                      traced(i);
                      untraced();
                  }
              });

    // One request through StagePipe::execute against forwardGraph at
    // the same batch, alternating which runs first.
    std::vector<double> pipe_ms;
    {
        mm::pipeline::StagePipe pipe(
            graph, &net.memoryPlan(mm::pipeline::SchedPolicy::Parallel),
            net.stashSlots());
        mm::pipeline::PipeRequest request;
        request.batch = &model->batch;
        request.tag = mm::fusion::fusionKindName(net.config().fusionKind);
        const auto piped_us = [&] {
            return timedUs([&] {
                mm::autograd::NoGradGuard no_grad;
                pipe.execute(request);
            });
        };
        timedLoop(opt.quick ? 10 : 200, 0.3 * budget_us, [&](int i) {
            double fwd = 0.0, piped = 0.0;
            if (i % 2 == 0) {
                fwd = forward_us();
                piped = piped_us();
            } else {
                piped = piped_us();
                fwd = forward_us();
            }
            pipe_ms.push_back((piped - fwd) / 1e3);
        });
    }

    std::vector<double> one_us, four_us;
    timedLoop(opt.quick ? kMinIterations : 30, 0.25 * budget_us, [&](int) {
        {
            mm::core::ScopedNumThreads one(1);
            one_us.push_back(forward_us());
        }
        mm::core::ScopedNumThreads four(4);
        four_us.push_back(forward_us());
    });

    double sim_us[kClasses] = {};
    double sim_total = 0.0;
    {
        mm::autograd::NoGradGuard no_grad;
        mm::profile::Profiler profiler(mm::sim::DeviceModel::rtx2080ti());
        const mm::profile::ProfileResult sim = profiler.profileGraph(
            net, model->batch, mm::pipeline::SchedPolicy::Sequential);
        for (const mm::sim::SimKernel &k : sim.timeline.kernels) {
            sim_us[static_cast<int>(k.ev.kclass)] += k.cost.timeUs;
            sim_total += k.cost.timeUs;
        }
    }

    std::vector<Metric> &m = result.metrics;
    for (int s = 0; s < kNumStages; ++s)
        m.push_back({std::string("stage.") + tr::stageName(kStages[s]) +
                         "_ms",
                     "ms", median(acc.stageMs[s])});
    m.push_back({"stage.sched_overhead_ms", "ms", median(acc.schedMs)});
    m.push_back({"stagepipe.overhead_ms", "ms", median(pipe_ms)});
    m.push_back({"kernel.total_ms", "ms", median(acc.kernelMs)});
    JsonValue classes = JsonValue::array();
    for (int c = 0; c < kClasses; ++c) {
        const std::string key = "kernel." + className(c);
        const double secs = acc.classUs[c] / 1e6;
        const double share = median(acc.classShare[c]);
        const double gflops = secs > 0.0 ? acc.classFlops[c] / secs / 1e9 : 0.0;
        const double gbps = secs > 0.0 ? acc.classBytes[c] / secs / 1e9 : 0.0;
        const double sim_share = sim_total > 0.0 ? sim_us[c] / sim_total : 0.0;
        m.push_back({key + ".share", "share", share});
        m.push_back({key + ".gflops", "GFLOP/s", gflops});
        m.push_back({key + ".gbps", "GB/s", gbps});
        JsonValue row = JsonValue::object();
        row.set("class", className(c));
        row.set("ms", median(acc.classMs[c]));
        row.set("share", share);
        row.set("sim_share", sim_share);
        row.set("gflops", gflops);
        row.set("gbps", gbps);
        classes.push(row);
    }

    std::vector<std::pair<double, std::string>> ops;
    for (auto &[name, series] : acc.opMs) {
        series.resize(static_cast<size_t>(acc.passes), 0.0);
        ops.push_back({median(series), name});
    }
    std::sort(ops.rbegin(), ops.rend());
    JsonValue top = JsonValue::array();
    for (int k = 0; k < kTopOps; ++k) {
        const bool have = k < static_cast<int>(ops.size());
        const double ms = have ? ops[static_cast<size_t>(k)].first : 0.0;
        m.push_back({"op.top" + std::to_string(k + 1) + ".ms", "ms", ms});
        JsonValue row = JsonValue::object();
        row.set("name", have ? ops[static_cast<size_t>(k)].second : "");
        row.set("ms", ms);
        top.push(row);
    }

    for (int c = 0; c < kClasses; ++c)
        m.push_back({"sim." + className(c) + ".share", "share",
                     sim_total > 0.0 ? sim_us[c] / sim_total : 0.0});
    const double passes = static_cast<double>(std::max<size_t>(
        1, untraced_us.size()));
    const double kernels_per_pass =
        static_cast<double>(acc.kernels) / std::max(1, acc.passes);
    m.push_back({"mem.pool_reuse_ratio", "share",
                 pool_requests > 0.0 ? pool_hits / pool_requests : 0.0});
    m.push_back({"mem.allocs_per_op", "count",
                 kernels_per_pass > 0.0
                     ? pool_requests / passes / kernels_per_pass
                     : 0.0});
    m.push_back({"parallel.speedup", "ratio",
                 median(one_us) / median(four_us)});
    m.push_back({"trace.overhead_ratio", "ratio",
                 median(traced_us) / median(untraced_us)});

    result.detail.set("classes", classes);
    result.detail.set("top_ops", top);
    result.detail.set("traced_passes", acc.passes);
    result.detail.set("kernels_per_pass", kernels_per_pass);
    result.detail.set("stagepipe_pairs",
                      static_cast<int64_t>(pipe_ms.size()));
    result.detail.set("thread_pairs", static_cast<int64_t>(one_us.size()));
    return result;
}

double
measureEffectiveCores(bool quick)
{
    const int nproc =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    mm::core::ScopedNumThreads serial(1);
    mm::Rng rng(7);
    const mm::tensor::Tensor a =
        mm::tensor::Tensor::randn(mm::tensor::Shape({256, 256}), rng);
    const mm::tensor::Tensor b =
        mm::tensor::Tensor::randn(mm::tensor::Shape({256, 256}), rng);
    const int reps = quick ? 8 : 40;
    const auto burst = [&] {
        for (int i = 0; i < reps; ++i)
            mm::tensor::matmul(a, b);
    };
    burst();
    std::vector<double> ratios;
    for (int trial = 0; trial < (quick ? 1 : 3); ++trial) {
        const double alone = timedUs(burst);
        const double together = timedUs([&] {
            std::vector<std::thread> copies;
            for (int i = 0; i < nproc; ++i)
                copies.emplace_back(burst);
            for (std::thread &t : copies)
                t.join();
        });
        ratios.push_back(nproc * alone / together);
    }
    return median(ratios);
}

ChromeTrace::ChromeTrace() : originUs_(nowUs()) {}

void
ChromeTrace::processName(int pid, const std::string &name)
{
    JsonValue args = JsonValue::object();
    args.set("name", name);
    JsonValue ev = JsonValue::object();
    ev.set("name", "process_name");
    ev.set("ph", "M");
    ev.set("pid", pid);
    ev.set("tid", 1);
    ev.set("args", args);
    events_.push(ev);
}

void
ChromeTrace::span(int pid, const std::string &name, const char *cat,
                  double startUs, double endUs, JsonValue args)
{
    JsonValue ev = JsonValue::object();
    ev.set("name", name);
    ev.set("cat", cat);
    ev.set("ph", "X");
    ev.set("ts", startUs - originUs_);
    ev.set("dur", endUs - startUs);
    ev.set("pid", pid);
    ev.set("tid", 1);
    ev.set("args", args);
    events_.push(ev);
}

bool
ChromeTrace::write(const std::string &path) const
{
    JsonValue doc = JsonValue::object();
    doc.set("traceEvents", events_);
    doc.set("displayTimeUnit", "ms");
    std::ofstream out(path);
    out << doc.dump() << "\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
