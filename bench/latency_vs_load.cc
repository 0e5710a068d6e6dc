/**
 * @file
 * Latency vs offered load — the serving measurement per-kernel numbers
 * cannot predict (the end-to-end claim of the paper, measured the way
 * MLPerf Inference's server scenario does).
 *
 * The experiment first runs a closed loop to find the serving capacity
 * (achieved requests/second with every slot busy), then sweeps an
 * open-loop Poisson arrival process across fractions of that capacity,
 * from light load deep into saturation. Expected shape: p50 stays near
 * the service time until the knee, while queueing delay sends p99
 * through the roof as offered load crosses capacity — the classic
 * hockey-stick latency curve. A final sweep point repeats the highest
 * load with request coalescing to show the batched-serving trade-off:
 * fewer, larger service batches buy back throughput at the cost of
 * per-request latency under light load.
 *
 * Every sweep point also appends its full "mmbench-result-v1" workload
 * record (queue_us / service_us / offered_rps / achieved_rps) to the
 * `mmbench fig --json` file, so the curve is machine-readable next to
 * the formatted table.
 *
 * Two companion tables ride along: a per-workload closed-loop capacity
 * table (the measured anchor every workload's own sweep would start
 * from), and — when `mmbench fig --slo-ms X` sets a latency SLO — the
 * MLPerf-server metric: the maximum swept offered rate whose measured
 * p99 stayed under X milliseconds.
 */

#include <iostream>
#include <memory>
#include <vector>

#include "common.hh"
#include "core/logging.hh"
#include "core/parallel.hh"
#include "core/table.hh"
#include "models/registry.hh"
#include "runner/experiment.hh"
#include "runner/runner.hh"
#include "runner/sink.hh"

using namespace mmbench;

namespace {

void
addRow(TextTable *table, const char *label,
       const runner::RunResult &r)
{
    table->addRow({label,
                   numfmt::f1(r.serve.offeredRps),
                   numfmt::f1(r.serve.achievedRps),
                   numfmt::f1(r.hostLatencyUs.p50),
                   numfmt::f1(r.hostLatencyUs.p95),
                   numfmt::f1(r.hostLatencyUs.p99),
                   numfmt::f1(r.serve.queueUs.p50),
                   numfmt::f1(r.serve.queueUs.p99),
                   numfmt::f1(r.serve.serviceUs.p50),
                   strfmt("%d", r.serve.batches)});
}

int
run()
{
    const bool smoke = benchutil::smokeMode();
    benchutil::printTitle(
        "latency_vs_load",
        "Tail latency vs offered load: closed-loop capacity anchor, "
        "then an open-loop Poisson sweep (queue wait + service time "
        "reported separately; all times in microseconds).");

    runner::RunSpec base;
    base.workload = "av-mnist";
    base.mode = runner::RunMode::Serve;
    base.batch = 2;
    base.sizeScale = smoke ? 0.35f : 1.0f;
    base.inflight = std::min(4, core::numThreads());
    base.requests = smoke ? 32 : 128;
    base.seed = 42;

    // Workload records go to the fig JSONL file (when configured) so
    // CI and notebooks read raw serve.queue_us/offered_rps fields.
    // Scoped: the sink must flush before emitTable appends the
    // figure record to the same file.
    std::unique_ptr<runner::JsonlSink> jsonl;
    std::vector<runner::ResultSink *> sinks;
    if (!benchutil::figJsonPath().empty()) {
        jsonl = std::make_unique<runner::JsonlSink>(
            benchutil::figJsonPath());
        sinks.push_back(jsonl.get());
    }

    TextTable table({"Arrival", "Offered rps", "Achieved rps",
                     "p50", "p95", "p99", "Queue p50", "Queue p99",
                     "Service p50", "Batches"});

    // Closed loop saturates every slot: its achieved rate is the
    // serving capacity that anchors the sweep.
    const runner::RunResult closed = runner::runOne(base, sinks);
    addRow(&table, "closed", closed);
    table.addSeparator();
    const double capacity = closed.serve.achievedRps;

    // Fractions of capacity, light load to past saturation. The
    // smoke ladder keeps three well-separated points so the p99
    // monotonicity check in CI is robust to scheduler noise.
    const std::vector<double> fractions =
        smoke ? std::vector<double>{0.3, 1.5, 6.0}
              : std::vector<double>{0.25, 0.5, 0.8, 1.2, 2.0, 4.0};

    // 1000 requests per sweep point: p99 is then the 990th-slowest
    // request, with ten samples beyond it, so a single host stall
    // cannot flip the monotone-p99 check CI runs over the smoke ladder.
    runner::RunSpec open = base;
    open.arrival = pipeline::ArrivalKind::Poisson;
    open.requests = 1000;
    double top_rate = 0.0;
    std::vector<runner::RunResult> sweep;
    for (double f : fractions) {
        open.rateRps = f * capacity;
        top_rate = open.rateRps;
        sweep.push_back(runner::runOne(open, sinks));
        addRow(&table, strfmt("poisson %.2fx", f).c_str(), sweep.back());
    }

    // The same overload, with the dispatcher allowed to batch up
    // to 8 queued requests into one service batch.
    table.addSeparator();
    open.rateRps = top_rate;
    open.maxBatch = 8;
    addRow(&table, "poisson +batch8", runner::runOne(open, sinks));

    // Per-workload closed-loop capacity: the measured anchor each
    // workload's open-loop sweep would start from (av-mnist's anchor
    // above is re-measured here under the same geometry). Runs before
    // the JSONL sink flushes so the raw records land in the same file.
    TextTable cap({"Workload", "Inflight", "Capacity rps",
                   "Service p50", "Service p99", "Samples/s"});
    runner::RunSpec cap_spec = base;
    cap_spec.requests = smoke ? 16 : 64;
    for (const std::string &name :
         models::WorkloadRegistry::instance().names()) {
        cap_spec.workload = name;
        const runner::RunResult r = runner::runOne(cap_spec, sinks);
        cap.addRow({name, strfmt("%d", r.serve.inflight),
                    numfmt::f1(r.serve.achievedRps),
                    numfmt::f1(r.serve.serviceUs.p50),
                    numfmt::f1(r.serve.serviceUs.p99),
                    numfmt::f1(r.throughputSps)});
    }

    if (jsonl) {
        jsonl->flush();
        jsonl.reset();
    }
    benchutil::emitTable(table, "load");
    benchutil::note(strfmt(
        "capacity anchor: closed loop at inflight=%d achieved %.1f "
        "req/s; expected shape: p99 grows monotonically with offered "
        "load (queueing delay dominates past the knee), and "
        "coalescing trades per-request latency for fewer, larger "
        "service batches.", closed.serve.inflight, capacity));

    benchutil::emitTable(cap, "load_capacity");
    benchutil::note(
        "per-workload closed-loop capacity at the sweep geometry: the "
        "measured anchor an open-loop sweep of that workload is "
        "expressed against.");

    // MLPerf-server SLO metric: the highest swept offered rate whose
    // measured end-to-end p99 stayed under the target. Reported from
    // the sweep's Poisson points (coalescing changes the latency
    // contract, so the coalesced point is excluded).
    if (benchutil::sloMs() > 0.0) {
        const double slo_us = benchutil::sloMs() * 1000.0;
        const runner::RunResult *best = nullptr;
        for (const runner::RunResult &r : sweep) {
            if (r.hostLatencyUs.p99 <= slo_us &&
                (!best || r.serve.offeredRps > best->serve.offeredRps))
                best = &r;
        }
        TextTable slo({"SLO p99 (ms)", "Max offered rps",
                       "p99 at max (us)", "Fraction of capacity"});
        if (best) {
            slo.addRow({numfmt::f1(benchutil::sloMs()),
                        numfmt::f1(best->serve.offeredRps),
                        numfmt::f1(best->hostLatencyUs.p99),
                        numfmt::f2(capacity > 0.0
                                       ? best->serve.offeredRps / capacity
                                       : 0.0)});
        } else {
            slo.addRow({numfmt::f1(benchutil::sloMs()), "none", "-",
                        "-"});
        }
        benchutil::emitTable(slo, "load_slo");
        benchutil::note(
            best ? strfmt("SLO: max measured rate with p99 <= %.1f ms "
                          "is %.1f req/s.",
                          benchutil::sloMs(), best->serve.offeredRps)
                 : strfmt("SLO: no swept rate kept p99 under %.1f ms.",
                          benchutil::sloMs()));
    }
    return 0;
}

} // namespace

MMBENCH_REGISTER_EXPERIMENT(load,
    "Tail latency vs offered load (open-loop Poisson serve sweep)",
    run);
