/**
 * @file
 * The shared experiment runner: execute one RunSpec and produce one
 * RunResult. Infer mode drives profiled inference passes (host wall
 * clock + simulated device timeline); train mode times optimizer
 * steps on the synthetic task and reports the final task metric.
 */

#ifndef MMBENCH_RUNNER_RUNNER_HH
#define MMBENCH_RUNNER_RUNNER_HH

#include <vector>

#include "data/synthetic.hh"
#include "runner/runresult.hh"
#include "runner/runspec.hh"
#include "runner/sink.hh"

namespace mmbench {
namespace runner {

/**
 * Concatenate the batched requests' pre-sampled batches into one
 * service batch (row-wise, dequeue order). Assembly cost is part of
 * the batched request's service time, as it would be in a real
 * batching server. `ids` need not be contiguous: under request
 * classes the dispatcher batches same-class requests, which are
 * interleaved with other classes in the arrival stream. Serve mode
 * passes include_targets=false — targets are never read on the
 * inference hot path, so their concat is skipped.
 */
data::Batch coalesceBatches(const std::vector<data::Batch> &batches,
                            const std::vector<int> &ids,
                            bool include_targets);

/**
 * Execute one spec. Fatal on unknown workload/device names (callers
 * validate through parseRunSpec first).
 *
 * Infer mode: `warmup` untimed + `repeat` timed profiled passes over
 * one batch, executed through the workload's stage graph under the
 * spec's scheduler policy. Host latency percentiles come from the
 * wall clock of the timed passes; simulated latency, per-stage,
 * per-modality, per-node and memory stats come from the device-model
 * replay of the node timeline. The task metric is the untrained
 * network's metric on the batch (documents the chance floor).
 *
 * Train mode: `repeat` epochs of Adam on a synthetic training set
 * (4x batch, at least 64 samples); every optimizer step is timed and
 * feeds the latency percentiles. The metric is evaluated on a held-out
 * test batch after training.
 *
 * Serve mode: `requests` (default 8x inflight) requests, closed or
 * open loop, on `inflight` concurrent slots; each slot runs its
 * request's stage graph through forwardGraph. Latency percentiles are
 * per-request (queue wait + service); throughput is aggregate samples
 * per second over the serving window.
 */
RunResult runOne(const RunSpec &spec);

/** Run a spec and feed every sink (flushes none). */
RunResult runOne(const RunSpec &spec,
                 const std::vector<ResultSink *> &sinks);

/**
 * The CLI's --smoke sweep: one tiny spec (batch 2, scale 0.35,
 * 1 warmup + 2 repeats) per registered workload, each fed to the
 * sinks. `base` optionally seeds every spec (mode, scheduler policy,
 * inflight, device, threads, fusion, seed); the tiny geometry always
 * wins. Returns the results in registry order.
 */
std::vector<RunResult> runSmoke(const std::vector<ResultSink *> &sinks,
                                const RunSpec *base = nullptr);

} // namespace runner
} // namespace mmbench

#endif // MMBENCH_RUNNER_RUNNER_HH
