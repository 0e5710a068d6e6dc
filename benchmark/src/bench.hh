/**
 * @file
 * Shared declarations of the mmbench performance benchmark program,
 * mmbench_perf.
 *
 * mmbench_perf times the library from outside, through its public entry
 * points only: MultiModalWorkload::forwardGraph for offline inference,
 * runner::runOne for serving, StagePipe::execute for the pipelined
 * engine, and a trace::Sink of its own for kernel self times. Nothing
 * here is compiled into the library.
 */

#ifndef MMBENCH_PERFBENCH_BENCH_HH
#define MMBENCH_PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "autograd/var.hh"
#include "core/json.hh"
#include "data/synthetic.hh"
#include "models/workload.hh"
#include "solver/config.hh"

namespace perfbench {

using mmbench::core::JsonValue;

/** Seed whose outputs are pinned in benchmark/reference.json. */
constexpr uint64_t kReferenceSeed = 42;
/** Fingerprint file, relative to the repository root (the cwd). */
constexpr const char *kReferencePath = "benchmark/reference.json";

/** Command-line settings of one mmbench_perf invocation. */
struct Options
{
    uint64_t seed = kReferenceSeed;
    double seconds = 25.0; ///< measured time per workload
    bool quick = false;    ///< one short round, checks only
    bool trace = false;    ///< per-layer pass instead of end-to-end
    std::string out = "benchmark/out";
    std::string commit = "unknown";
};

/** One serve phase: a runOne spec executed once per round. */
struct ServePhase
{
    std::string label;
    /** RunSpec flags; each round appends --requests and --seed. */
    std::vector<std::string> flags;
    /** Rate used to size a round's request count (requests/s). */
    double nominalRps = 0.0;
    /** Share of a round's time budget this phase gets. */
    double share = 1.0;
};

/** A benchmark workload: a model, a geometry and a way to drive it. */
struct WorkloadDef
{
    std::string name;
    std::string why;
    std::string model; ///< registered mmbench workload
    bool serve = false;
    int64_t batch = 8; ///< batch of the traced and checked passes
    float scale = 1.0f;
    bool fuseKernels = false;
    /** Kernel threads of one forward pass (serve slots run serially). */
    int threads = 4;
    /** Serve: every request must end ok (clean traffic). */
    bool expectAllOk = false;
    /** Serve: phases[0] gives latency, phases.back() throughput. */
    std::vector<ServePhase> phases;
};

/** The four workloads, in run order. */
const std::vector<WorkloadDef> &workloads();

/** A workload instance with one input batch, ready for forwardGraph. */
struct Model
{
    /** Installed first and destroyed last: fused kernels when on. */
    std::unique_ptr<mmbench::solver::ScopedConfig> solver;
    std::unique_ptr<mmbench::models::MultiModalWorkload> net;
    mmbench::data::Batch batch;
    int fusedGroups = 0;

    /** One untraced sequential-policy inference pass. */
    mmbench::autograd::Var forward(mmbench::pipeline::GraphRun *run =
                                       nullptr);
};

/**
 * Build the workload at the definition's scale and fusion setting
 * with weights and one input batch of `batch` rows drawn from `seed`,
 * the same way runner::runOne seeds a spec, and prime its stage graph
 * and memory plans.
 */
std::unique_ptr<Model> makeModel(const WorkloadDef &def, uint64_t seed,
                                 int64_t batch);

/** Output checks; each failure is one line in `failures`. */
struct Checks
{
    std::vector<std::string> failures;
    /** 1-thread output of the model's batch (infer rounds compare). */
    mmbench::tensor::Tensor reference;
};

/**
 * Compute the model's 1-thread reference output, compare it with the
 * pinned fingerprint when `seed` is the reference seed, and check
 * that eight concurrent batch-2 requests through StagePipe::execute
 * equal forwardGraph bitwise.
 */
Checks runChecks(const WorkloadDef &def, Model &model, uint64_t seed);

/** Rewrite reference.json with the fingerprints of `defs`. */
bool writeReference(const std::vector<const WorkloadDef *> &defs);

/** True when two tensors have equal shapes and identical bits. */
bool bitwiseEqual(const mmbench::tensor::Tensor &a,
                  const mmbench::tensor::Tensor &b);

/** A named scalar with its unit. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** Per-round values of one metric plus how the headline is formed. */
using RoundTable = std::map<std::string, std::vector<double>>;

/** What the end-to-end rounds of one workload produced. */
struct E2EResult
{
    std::vector<Metric> metrics; ///< the end-to-end metrics, in order
    RoundTable rounds;           ///< measured rounds
    RoundTable warmup;           ///< the discarded warm-up round
    std::vector<double> setups;  ///< seconds, one per set-up
    /** Serve- and solver-layer metrics (medians over rounds). */
    std::vector<Metric> layers;
    int64_t attempted = 0; ///< passes or requests in measured rounds
    int64_t failed = 0;    ///< failed + shed + timed-out requests
    std::vector<std::string> failures; ///< output checks that failed
};

/** How long the end-to-end rounds of one workload run. */
struct RoundPlan
{
    int rounds = 4;             ///< measured rounds
    double seconds = 5.0;       ///< length of one measured round
    double warmupSeconds = 2.5; ///< discarded first round; 0 = none
};

/** Set up the workload, check its outputs and run its rounds. */
E2EResult runEndToEnd(const WorkloadDef &def, const Options &opt,
                      const RoundPlan &plan);

/** Chrome trace-event JSON, written once at exit. */
class ChromeTrace
{
  public:
    /** Span timestamps are written relative to construction time. */
    ChromeTrace();

    void processName(int pid, const std::string &name);
    void span(int pid, const std::string &name, const char *cat,
              double startUs, double endUs, JsonValue args);
    bool write(const std::string &path) const;

  private:
    double originUs_;
    JsonValue events_ = JsonValue::array();
};

/** What the traced per-layer pass of one workload produced. */
struct TracedResult
{
    std::vector<Metric> metrics; ///< per-layer metrics, in order
    JsonValue detail = JsonValue::object();
};

/**
 * The per-layer pass: kernel/node/stage self times under a sink,
 * StagePipe vs forwardGraph pairs, 1-vs-4-thread passes and the sim's
 * predicted class shares, within about `seconds`.
 */
TracedResult runTraced(const WorkloadDef &def, const Options &opt,
                       double seconds, ChromeTrace *chrome, int pid);

/**
 * Throughput of nproc concurrent single-thread copies of one fixed
 * GEMM relative to one copy alone: the host's effective core count.
 */
double measureEffectiveCores(bool quick);

/** @name Statistics over samples @{ */
double nowUs();
double median(std::vector<double> v);
/** Linear-interpolated percentile, p in [0, 100]. */
double percentile(std::vector<double> v, double p);
/**
 * Distance between the first and third quartile as a share of the
 * median, with Python's statistics.quantiles(n=4) (exclusive) method.
 */
double relativeIqr(std::vector<double> v);
JsonValue toJson(const std::vector<double> &v);
/** @} */

} // namespace perfbench

#endif // MMBENCH_PERFBENCH_BENCH_HH
