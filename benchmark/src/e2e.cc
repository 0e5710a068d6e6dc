#include <algorithm>
#include <cmath>

#include "bench.hh"
#include "core/logging.hh"
#include "core/parallel.hh"
#include "runner/runner.hh"
#include "tensor/pool.hh"

namespace perfbench {

namespace mm = mmbench;

namespace {

constexpr double kBytesPerMb = 1e6;
/** Floors that keep a very short round meaningful. */
constexpr size_t kMinPasses = 20;
constexpr int kMinRequests = 100;

void
put(RoundTable *table, const std::string &key, double value)
{
    (*table)[key].push_back(value);
}

/** Round -1 is the discarded warm-up round, when the plan has one. */
int
firstRound(const RoundPlan &plan)
{
    return plan.warmupSeconds > 0.0 ? -1 : 0;
}

double
roundSeconds(const RoundPlan &plan, int round)
{
    return round < 0 ? plan.warmupSeconds : plan.seconds;
}

double
medianOf(const RoundTable &table, const std::string &key)
{
    const auto it = table.find(key);
    return it == table.end() ? 0.0 : median(it->second);
}

/** The serve-layer counters every round records, in report order. */
const char *const kServeCounters[] = {"degraded", "retries",
                                      "faults_injected", "shed",
                                      "timeouts", "failed"};

/** Serve- and solver-layer metrics as medians over the rounds. */
void
layerMetrics(const RoundTable &rounds, E2EResult *r)
{
    for (const char *key : {"serve.queue_p50_ms", "serve.queue_p99_ms",
                            "serve.service_p50_ms",
                            "serve.service_p99_ms"})
        r->layers.push_back({key, "ms", medianOf(rounds, key)});
    r->layers.push_back({"serve.batch_size_mean", "requests",
                             medianOf(rounds, "serve.batch_size_mean")});
    for (const char *counter : kServeCounters) {
        const std::string key = std::string("serve.") + counter;
        r->layers.push_back({key, "count", medianOf(rounds, key)});
    }
    r->layers.push_back(
        {"solver.fused_ops_per_request", "count",
         medianOf(rounds, "solver.fused_ops_per_request")});
    r->layers.push_back({"solver.fused_groups", "count",
                              medianOf(rounds, "solver.fused_groups")});
}

/**
 * Offline inference: back-to-back forwardGraph passes over one batch.
 * The benchmark loop is the request layer here: a pass's "queue" is
 * the gap since the previous pass ended, its service time the pass.
 */
E2EResult
runInfer(const WorkloadDef &def, const Options &opt, const RoundPlan &plan)
{
    E2EResult r;
    mm::core::ScopedNumThreads threads(def.threads);
    std::unique_ptr<Model> model;
    // A set-up takes tens of milliseconds; the median of several keeps
    // setup_s steady.
    const int setups = opt.quick ? 1 : 7;
    for (int i = 0; i < setups; ++i) {
        model.reset();
        const double t0 = nowUs();
        model = makeModel(def, opt.seed, def.batch);
        for (int pass = 0; pass < 2; ++pass)
            model->forward();
        r.setups.push_back((nowUs() - t0) / 1e6);
    }
    Checks checks = runChecks(def, *model, opt.seed);
    r.failures = checks.failures;

    mm::tensor::MemoryPool &pool = mm::tensor::MemoryPool::instance();
    const double input_bytes = static_cast<double>(model->batch.inputBytes());
    const double batch = static_cast<double>(def.batch);
    std::vector<double> latency;
    int matched = 0, checked = 0;
    for (int round = firstRound(plan); round < plan.rounds; ++round) {
        RoundTable *table = round < 0 ? &r.warmup : &r.rounds;
        const double round_us = roundSeconds(plan, round) * 1e6;
        std::vector<double> lat, gap;
        mm::autograd::Var out;
        pool.resetPeak();
        const uint64_t fused_before =
            mm::solver::counters().fusedOps.load();
        const double start = nowUs();
        double prev_end = start;
        for (;;) {
            const double t0 = nowUs();
            out = model->forward();
            const double t1 = nowUs();
            lat.push_back((t1 - t0) / 1e3);
            gap.push_back((t0 - prev_end) / 1e3);
            prev_end = t1;
            if (t1 - start >= round_us && lat.size() >= kMinPasses)
                break;
        }
        const uint64_t peak_bytes = pool.stats().peakBytes;
        const double passes = static_cast<double>(lat.size());
        put(table, "passes", passes);
        put(table, "latency_p50_ms", percentile(lat, 50));
        put(table, "latency_p99_ms", percentile(lat, 99));
        put(table, "throughput_sps",
            passes * batch / ((prev_end - start) / 1e6));
        put(table, "peak_mem_mb",
            (static_cast<double>(peak_bytes) - input_bytes) /
                kBytesPerMb);
        put(table, "solver.fused_ops_per_request",
            static_cast<double>(mm::solver::counters().fusedOps.load() -
                                fused_before) /
                passes);
        put(table, "solver.fused_groups", model->fusedGroups);
        put(table, "serve.queue_p50_ms", percentile(gap, 50));
        put(table, "serve.queue_p99_ms", percentile(gap, 99));
        put(table, "serve.service_p50_ms", percentile(lat, 50));
        put(table, "serve.service_p99_ms", percentile(lat, 99));
        put(table, "serve.batch_size_mean", 1.0);
        for (const char *counter : kServeCounters)
            put(table, std::string("serve.") + counter, 0.0);
        const bool match = bitwiseEqual(out.value(), checks.reference);
        if (round < 0)
            continue;
        ++checked;
        if (match) {
            ++matched;
        } else {
            r.failures.push_back("round " + std::to_string(round) +
                                 ": output differs from the 1-thread "
                                 "reference");
        }
        r.attempted += static_cast<int64_t>(lat.size());
        latency.insert(latency.end(), lat.begin(), lat.end());
    }

    // p99 over the pooled passes of every measured round, so at least
    // ten samples lie beyond it; the other metrics are round medians.
    r.metrics = {
        {"setup_s", "s", median(r.setups)},
        {"latency_p50_ms", "ms", medianOf(r.rounds, "latency_p50_ms")},
        {"latency_p99_ms", "ms", percentile(latency, 99)},
        {"throughput_sps", "samples/s",
         medianOf(r.rounds, "throughput_sps")},
        {"full_fidelity_share", "share",
         checked == 0 ? 0.0
                      : static_cast<double>(matched) /
                            static_cast<double>(checked)},
        {"peak_mem_mb", "MB", medianOf(r.rounds, "peak_mem_mb")},
    };
    layerMetrics(r.rounds, &r);
    return r;
}

/**
 * Serving: one runner::runOne call per phase per round. Set-up is the
 * runOne wall time outside its serving window (workload build, input
 * sampling, warm-up request, priming).
 */
E2EResult
runServe(const WorkloadDef &def, const Options &opt, const RoundPlan &plan)
{
    E2EResult r;
    {
        auto model = makeModel(def, opt.seed, def.batch);
        r.failures = runChecks(def, *model, opt.seed).failures;
    }

    const double batch = static_cast<double>(def.batch);
    for (int round = firstRound(plan); round < plan.rounds; ++round) {
        RoundTable *table = round < 0 ? &r.warmup : &r.rounds;
        // Each round replays its own seeded request stream, so the
        // round median spans several fault and arrival draws.
        const uint64_t round_seed =
            opt.seed * 1000 + static_cast<uint64_t>(round + 1);
        double ok = 0.0, requests = 0.0, peak_mb = 0.0;
        std::map<std::string, double> counters;
        for (size_t p = 0; p < def.phases.size(); ++p) {
            const ServePhase &phase = def.phases[p];
            const int n = std::max(
                kMinRequests, static_cast<int>(std::lround(
                                  phase.nominalRps * phase.share *
                                  roundSeconds(plan, round))));
            std::vector<std::string> args = phase.flags;
            args.insert(args.end(), {"--requests", std::to_string(n),
                                     "--seed",
                                     std::to_string(round_seed)});
            mm::runner::RunSpec spec;
            std::string error;
            if (!mm::runner::parseRunSpec(args, &spec, &error))
                MM_FATAL("%s phase %s: %s", def.name.c_str(),
                         phase.label.c_str(), error.c_str());

            const double t0 = nowUs();
            const mm::runner::RunResult res = mm::runner::runOne(spec);
            const double wall = nowUs() - t0;
            const mm::runner::ServeStats &s = res.serve;

            const double setup = (wall - s.wallUs) / 1e6;
            put(table, phase.label + ".setup_s", setup);
            put(table, phase.label + ".requests", s.requests);
            if (round >= 0) {
                r.setups.push_back(setup);
                r.attempted += s.requests;
                r.failed += s.failed + s.shed + s.timeouts;
            }
            const std::string where = def.name + " round " +
                                      std::to_string(round) + " " +
                                      phase.label + ": ";
            if (s.ok + s.degraded + s.shed + s.timeouts + s.failed !=
                s.requests)
                r.failures.push_back(where +
                                     "outcome counts do not sum to the "
                                     "requests");
            if (def.expectAllOk && s.ok != s.requests)
                r.failures.push_back(where + std::to_string(s.ok) + " of " +
                                     std::to_string(s.requests) +
                                     " requests ended ok");

            ok += s.ok;
            requests += s.requests;
            peak_mb = std::max(
                peak_mb, (static_cast<double>(res.memory.peakBytes) -
                          static_cast<double>(res.memory.datasetBytes)) /
                             kBytesPerMb);
            counters["degraded"] += s.degraded;
            counters["retries"] += s.retries;
            counters["faults_injected"] += s.faultsInjected;
            counters["shed"] += s.shed;
            counters["timeouts"] += s.timeouts;
            counters["failed"] += s.failed;
            if (p == 0) {
                put(table, "latency_p50_ms", res.hostLatencyUs.p50 / 1e3);
                put(table, "latency_p99_ms", res.hostLatencyUs.p99 / 1e3);
                put(table, "serve.queue_p50_ms", s.queueUs.p50 / 1e3);
                put(table, "serve.queue_p99_ms", s.queueUs.p99 / 1e3);
                put(table, "serve.service_p50_ms", s.serviceUs.p50 / 1e3);
                put(table, "serve.service_p99_ms", s.serviceUs.p99 / 1e3);
                put(table, "serve.batch_size_mean",
                    s.batches == 0 ? 0.0
                                   : static_cast<double>(s.requests) /
                                         s.batches);
                put(table, "solver.fused_ops_per_request",
                    static_cast<double>(res.solver.fusedOps) / s.requests);
                put(table, "solver.fused_groups", res.solver.fusedGroups);
            }
            if (p + 1 == def.phases.size())
                put(table, "throughput_sps", s.goodputRps * batch);
        }
        for (const char *counter : kServeCounters)
            put(table, std::string("serve.") + counter, counters[counter]);
        put(table, "full_fidelity_share", ok / requests);
        put(table, "peak_mem_mb", peak_mb);
    }

    r.metrics = {
        {"setup_s", "s", median(r.setups)},
        {"latency_p50_ms", "ms", medianOf(r.rounds, "latency_p50_ms")},
        {"latency_p99_ms", "ms", medianOf(r.rounds, "latency_p99_ms")},
        {"throughput_sps", "samples/s",
         medianOf(r.rounds, "throughput_sps")},
        {"full_fidelity_share", "share",
         medianOf(r.rounds, "full_fidelity_share")},
        {"peak_mem_mb", "MB", medianOf(r.rounds, "peak_mem_mb")},
    };
    layerMetrics(r.rounds, &r);
    return r;
}

} // namespace

E2EResult
runEndToEnd(const WorkloadDef &def, const Options &opt,
            const RoundPlan &plan)
{
    return def.serve ? runServe(def, opt, plan) : runInfer(def, opt, plan);
}

} // namespace perfbench
