#include "runner/runspec.hh"

#include <sys/stat.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "core/logging.hh"
#include "core/string_utils.hh"
#include "models/registry.hh"

namespace mmbench {
namespace runner {

const char *
runModeName(RunMode mode)
{
    switch (mode) {
      case RunMode::Infer: return "infer";
      case RunMode::Train: return "train";
      case RunMode::Serve: return "serve";
    }
    MM_PANIC("invalid run mode");
}

namespace {

/**
 * The one accepted-alias table: parse, validation and the error
 * message all read it, so adding a device model is a one-line change.
 */
struct DeviceAlias
{
    const char *alias;
    sim::DeviceModel (*model)();
};

const DeviceAlias kDeviceAliases[] = {
    {"2080ti", &sim::DeviceModel::rtx2080ti},
    {"rtx2080ti", &sim::DeviceModel::rtx2080ti},
    {"server", &sim::DeviceModel::rtx2080ti},
    {"nano", &sim::DeviceModel::jetsonNano},
    {"jetson-nano", &sim::DeviceModel::jetsonNano},
    {"orin", &sim::DeviceModel::jetsonOrin},
    {"jetson-orin", &sim::DeviceModel::jetsonOrin},
};

const DeviceAlias *
findDevice(const std::string &name)
{
    const std::string d = toLower(name);
    for (const DeviceAlias &alias : kDeviceAliases) {
        if (d == alias.alias)
            return &alias;
    }
    return nullptr;
}

} // namespace

const std::string &
knownDeviceNames()
{
    static const std::string names = [] {
        std::vector<std::string> aliases;
        for (const DeviceAlias &alias : kDeviceAliases)
            aliases.push_back(alias.alias);
        return join(aliases, ", ");
    }();
    return names;
}

sim::DeviceModel
RunSpec::deviceModel() const
{
    const DeviceAlias *alias = findDevice(device);
    if (!alias)
        MM_FATAL("unknown device '%s' (known: %s)", device.c_str(),
                 knownDeviceNames().c_str());
    return alias->model();
}

bool
isKnownDevice(const std::string &name)
{
    return findDevice(name) != nullptr;
}

namespace {

constexpr int64_t kIntMax = std::numeric_limits<int>::max();
constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();

/**
 * Store a whole decimal integer in [lo, hi] into *field. hi never
 * exceeds what the field holds, so no value wraps on the way in.
 */
template <typename T>
std::string
setInt(const char *flag, const std::string &text, int64_t lo, int64_t hi,
       T *field)
{
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (text.empty() || errno == ERANGE ||
        end != text.c_str() + text.size() || v < lo || v > hi)
        return strfmt("%s expects an integer in [%lld, %lld], got '%s'",
                      flag, static_cast<long long>(lo),
                      static_cast<long long>(hi), text.c_str());
    *field = static_cast<T>(v);
    return "";
}

/**
 * Store a number into *field: > 0 when `positive`, else >= 0, and
 * finite once stored as T.
 */
template <typename T>
std::string
setNumber(const char *flag, const std::string &text, bool positive,
          T *field)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size() ||
        !(std::fabs(v) <= std::numeric_limits<T>::max()) ||
        !(positive ? static_cast<T>(v) > 0 : v >= 0.0))
        return strfmt("%s expects a finite number %s 0, got '%s'", flag,
                      positive ? ">" : ">=", text.c_str());
    *field = static_cast<T>(v);
    return "";
}

/** on/true/1 or off/false/0, in any case. */
bool
parseOnOff(const std::string &text, bool *out)
{
    const std::string t = toLower(text);
    const bool on = t == "on" || t == "true" || t == "1";
    if (!on && t != "off" && t != "false" && t != "0")
        return false;
    *out = on;
    return true;
}

} // namespace

const std::vector<SpecFlag> &
specFlags()
{
    // One row per flag. Setters check only their own value; checks
    // that span flags live in validateRunSpec, so flag order never
    // decides whether a spec parses.
    static const std::vector<SpecFlag> kFlags = {
        {"--workload", "NAME", "registered workload (required unless "
         "--smoke)", false,
         [](const char *, const std::string &v, RunSpec *s) {
             s->workload = toLower(v);
             return std::string();
         }},
        {"--fusion", "KIND", "modality fusion kind (default: the "
         "workload's), or on|off: fused solver kernels", false,
         [](const char *, const std::string &v, RunSpec *s) -> std::string {
             // Overloaded: on/off toggles kernel fusion (the solver
             // registry's fused Linear/Conv/norm+act path); any other
             // value names a modality-fusion implementation.
             const std::string f = toLower(v);
             if (f == "on" || f == "off") {
                 s->fuseKernels = f == "on";
             } else if (fusion::tryParseFusionKind(v, &s->fusionKind)) {
                 s->hasFusion = true;
             } else {
                 return strfmt("unknown fusion '%s' (expected on/off for "
                               "kernel fusion, or a modality fusion kind: "
                               "zero, sum, concat, tensor, attention, "
                               "linearglu, transformer, late_lstm)",
                               v.c_str());
             }
             return "";
         }},
        {"--autotune", "MODE", "off (default), on or force: time fused-"
         "kernel candidates (needs --fusion on)", false,
         [](const char *, const std::string &v, RunSpec *s) -> std::string {
             if (solver::tryParseAutotuneMode(v, &s->autotune))
                 return "";
             return strfmt("unknown --autotune value '%s' (expected off, "
                           "on or force)", v.c_str());
         }},
        {"--perfdb", "PATH", "autotune cache (default: $MMBENCH_PERFDB "
         "or mmbench_perfdb.json)", false,
         [](const char *, const std::string &v, RunSpec *s) -> std::string {
             if (v.empty())
                 return "--perfdb expects a file path";
             s->perfdb = v;
             return "";
         }},
        {"--mode", "MODE", "infer (default), train or serve", false,
         [](const char *, const std::string &v, RunSpec *s) -> std::string {
             const std::string name = toLower(v);
             for (RunMode m : {RunMode::Infer, RunMode::Train,
                               RunMode::Serve}) {
                 if (name == runModeName(m)) {
                     s->mode = m;
                     return "";
                 }
             }
             return strfmt("unknown mode '%s' (expected infer, train or "
                           "serve)", v.c_str());
         }},
        {"--batch", "N[,N...]", "batch size sweep (default 8)", true,
         [](const char *f, const std::string &v, RunSpec *s) {
             return setInt(f, v, 1, kInt64Max, &s->batch);
         }},
        {"--threads", "N[,N...]", "worker-thread sweep (default 0 = the "
         "pool's)", true,
         [](const char *f, const std::string &v, RunSpec *s) {
             return setInt(f, v, 0, kIntMax, &s->threads);
         }},
        {"--scale", "F[,F...]", "size-scale sweep (default 1.0)", true,
         [](const char *f, const std::string &v, RunSpec *s) {
             return setNumber(f, v, true, &s->sizeScale);
         }},
        {"--seed", "N", "weights/data seed (default 42)", false,
         [](const char *f, const std::string &v, RunSpec *s) {
             // The result record stores the seed as an int64.
             return setInt(f, v, 0, kInt64Max, &s->seed);
         }},
        {"--warmup", "N", "untimed repetitions (default 1)", false,
         [](const char *f, const std::string &v, RunSpec *s) {
             return setInt(f, v, 0, kIntMax, &s->warmup);
         }},
        {"--repeat", "N", "timed repetitions (default 5)", false,
         [](const char *f, const std::string &v, RunSpec *s) {
             return setInt(f, v, 1, kIntMax, &s->repeat);
         }},
        {"--device", "NAME", "simulated device: 2080ti (default), nano, "
         "orin", false,
         [](const char *, const std::string &v, RunSpec *s) -> std::string {
             if (!isKnownDevice(v))
                 return strfmt("unknown device '%s' (known: %s)", v.c_str(),
                               knownDeviceNames().c_str());
             s->device = toLower(v);
             return "";
         }},
        {"--sched", "POLICY", "stage-graph scheduler: sequential (default) "
         "or parallel", false,
         [](const char *, const std::string &v, RunSpec *s) -> std::string {
             if (pipeline::tryParseSchedPolicy(v, &s->sched))
                 return "";
             return strfmt("unknown scheduler policy '%s' (expected "
                           "sequential or parallel)", v.c_str());
         }},
        {"--inflight", "N", "serve mode: concurrent requests (default 4)",
         false,
         [](const char *f, const std::string &v, RunSpec *s) {
             // serveRequests() defaults to 8x inflight, an int too.
             return setInt(f, v, 1, kIntMax / 8, &s->inflight);
         }},
        {"--requests", "N", "serve mode: total requests (default 0 = 8x "
         "inflight)", false,
         [](const char *f, const std::string &v, RunSpec *s) {
             return setInt(f, v, 0, kIntMax, &s->requests);
         }},
        {"--arrival", "KIND", "serve mode: closed (default), or open-loop "
         "poisson / fixed", false,
         [](const char *, const std::string &v, RunSpec *s) -> std::string {
             if (pipeline::tryParseArrivalKind(v, &s->arrival))
                 return "";
             return strfmt("unknown arrival process '%s' (expected closed, "
                           "poisson or fixed)", v.c_str());
         }},
        {"--rate", "R[,R...]", "open loop: offered requests/second sweep",
         true,
         [](const char *f, const std::string &v, RunSpec *s) {
             return setNumber(f, v, false, &s->rateRps);
         }},
        {"--max-batch", "N", "open loop: serve up to N queued requests as "
         "one batch (default 1)", false,
         [](const char *f, const std::string &v, RunSpec *s) {
             return setInt(f, v, 1, kIntMax, &s->maxBatch);
         }},
        {"--batch-wait-us", "U", "open loop: hold an under-filled batch up "
         "to U us (needs --max-batch > 1)", false,
         [](const char *f, const std::string &v, RunSpec *s) {
             return setInt(f, v, 0, kIntMax, &s->batchWaitUs);
         }},
        {"--classes", "SPEC", "open loop: SLO classes, e.g. "
         "'hi:share=1:prio=1:deadline_ms=50;lo:share=3'", false,
         [](const char *, const std::string &v, RunSpec *s) {
             s->classes = v;
             return std::string();
         }},
        {"--faults", "SPEC", "serve mode: fault injection, e.g. "
         "'slow:node=encoder:*:p=0.05:x=4;fail:node=fusion:p=0.01'", false,
         [](const char *, const std::string &v, RunSpec *s) {
             s->faults = v;
             return std::string();
         }},
        {"--queue-cap", "N", "open loop: shed the oldest arrivals beyond N "
         "queued (default 0 = none)", false,
         [](const char *f, const std::string &v, RunSpec *s) {
             return setInt(f, v, 0, kIntMax, &s->queueCap);
         }},
        {"--deadline-ms", "D", "serve mode: per-request deadline (default "
         "0 = none)", false,
         [](const char *f, const std::string &v, RunSpec *s) {
             return setNumber(f, v, false, &s->deadlineMs);
         }},
        {"--retries", "N", "serve mode: retries after an injected failure "
         "(default 0)", false,
         [](const char *f, const std::string &v, RunSpec *s) {
             return setInt(f, v, 0, kIntMax, &s->retries);
         }},
        {"--shed", "on|off", "serve mode: shed and degrade under deadline "
         "pressure (default on)", false,
         [](const char *f, const std::string &v, RunSpec *s) -> std::string {
             if (parseOnOff(v, &s->shed))
                 return "";
             return strfmt("%s expects on or off, got '%s'", f, v.c_str());
         }},
        {"--dtype", "T[,T...]", "compute dtype sweep: f32 (default), bf16, "
         "f16, i8", true,
         [](const char *, const std::string &v, RunSpec *s) -> std::string {
             if (tensor::tryParseDType(v, &s->dtype))
                 return "";
             return strfmt("unknown --dtype '%s' (expected f32, bf16, f16 "
                           "or i8)", v.c_str());
         }},
        {"--pipeline", "on|off", "deprecated: accepted with a warning and "
         "ignored", false,
         [](const char *f, const std::string &v, RunSpec *) -> std::string {
             bool ignored = false;
             if (!parseOnOff(v, &ignored))
                 return strfmt("%s expects on or off, got '%s'", f,
                               v.c_str());
             warn("--pipeline is deprecated and ignored: every serve "
                  "slot runs its request's graph itself");
             return "";
         }},
        {"--batcher", "KIND", "deprecated: accepted with a warning and "
         "ignored", false,
         [](const char *, const std::string &v, RunSpec *) -> std::string {
             const std::string b = toLower(v);
             if (b != "static" && b != "continuous")
                 return strfmt("unknown --batcher value '%s' (expected "
                               "static or continuous)", v.c_str());
             warn("--batcher is deprecated and ignored: --max-batch N "
                  "batches, --batch-wait-us U holds an under-filled "
                  "batch");
             return "";
         }},
    };
    return kFlags;
}

pipeline::ServeLoopOptions
serveLoopOptions(const RunSpec &spec, const pipeline::ClassPlan *classes)
{
    pipeline::ServeLoopOptions loop;
    loop.arrival = spec.arrival;
    loop.rateRps = spec.rateRps;
    loop.seed = spec.seed;
    loop.inflight = spec.inflight;
    loop.maxBatch = spec.maxBatch;
    loop.batchWaitUs = static_cast<double>(spec.batchWaitUs);
    loop.classes = classes;
    loop.queueCap = spec.queueCap;
    loop.deadlineUs = spec.deadlineMs * 1000.0;
    loop.shedding = spec.shed;
    return loop;
}

std::string
validateRunSpec(const RunSpec &spec)
{
    const bool serve = spec.mode == RunMode::Serve;
    if (serve && spec.sched == pipeline::SchedPolicy::Parallel) {
        // Serve requests already occupy the worker pool, so the
        // intra-request parallel policy always degrades to sequential
        // there; reject the combination instead of emitting records
        // labeled with a policy that never ran.
        return "--sched parallel has no effect in serve mode (in-flight "
               "requests already occupy the worker pool); use the "
               "default sequential";
    }
    if (!serve && pipeline::isOpenLoop(spec.arrival))
        return strfmt("--arrival %s only applies to --mode serve",
                      pipeline::arrivalKindName(spec.arrival));
    pipeline::ClassPlan classes;
    std::string detail;
    if (!spec.classes.empty() &&
        !pipeline::parseClassPlan(spec.classes, &classes, &detail))
        return "--classes: " + detail;
    // Outside serve mode the loop is closed, so the open-loop flags
    // are rejected there as well.
    const std::string loop_error = pipeline::validateServeOptions(
        spec.serveRequests(), serveLoopOptions(spec, &classes));
    if (!loop_error.empty())
        return loop_error;
    if (!serve) {
        // Fault-tolerance flags are serve-mode features; rejecting them
        // elsewhere keeps every emitted record honest about what ran.
        if (!spec.faults.empty())
            return "--faults injects into serve-mode requests; add "
                   "--mode serve";
        if (spec.deadlineMs > 0.0)
            return "--deadline-ms sets a serve-mode request deadline; "
                   "add --mode serve";
        if (spec.retries > 0)
            return "--retries is the serve-mode retry budget; add --mode "
                   "serve";
        if (!spec.shed)
            return "--shed off disables serve-mode load shedding; add "
                   "--mode serve";
    }
    // Autotuning and the perf-db only exist on the fused path.
    if (!spec.fuseKernels && spec.autotune != solver::AutotuneMode::Off)
        return strfmt("--autotune %s searches over fused-kernel solvers; "
                      "add --fusion on",
                      solver::autotuneModeName(spec.autotune));
    if (!spec.fuseKernels && !spec.perfdb.empty())
        return "--perfdb names the fused-kernel autotuning cache; add "
               "--fusion on";
    if (spec.mode == RunMode::Train &&
        (spec.dtype == tensor::DType::I8 ||
         spec.dtype == tensor::DType::F16)) {
        // i8/f16 have no backward kernels and no master-weight story.
        // bf16 is allowed: training keeps f32 master weights and only
        // the eval passes reduce.
        return strfmt("--dtype %s is inference-only; use --mode "
                      "infer/serve, or --dtype bf16 (f32 master weights) "
                      "for reduced-precision training",
                      tensor::dtypeName(spec.dtype));
    }
    if (spec.autotune == solver::AutotuneMode::Force) {
        // Force always re-searches and re-writes the perf-db, so an
        // unwritable existing db can only end in lost results.
        // Permission bits via stat(), not access(): access(W_OK) is
        // always 0 for root.
        const std::string path = solver::resolvePerfDbPath(spec.perfdb);
        struct stat st;
        if (::stat(path.c_str(), &st) == 0 &&
            (st.st_mode & (S_IWUSR | S_IWGRP | S_IWOTH)) == 0)
            return strfmt("--autotune force must rewrite the perf-db, but "
                          "'%s' is read-only; make it writable or pass "
                          "--perfdb with a writable path", path.c_str());
    }
    pipeline::FaultPlan faults;
    if (!spec.faults.empty() &&
        !pipeline::parseFaultPlan(spec.faults, spec.seed, &faults, &detail))
        return "--faults: " + detail;
    if (!spec.workload.empty() &&
        !models::WorkloadRegistry::instance().find(spec.workload))
        return strfmt(
            "unknown workload '%s' (known: %s)", spec.workload.c_str(),
            join(models::WorkloadRegistry::instance().names(), ", ")
                .c_str());
    return "";
}

namespace {

const SpecFlag *
findFlag(const std::string &name)
{
    for (const SpecFlag &flag : specFlags()) {
        if (name == flag.name)
            return &flag;
    }
    return nullptr;
}

/** The flag grammar shared by spec and template parsing. */
bool
parseSpecFlags(const std::vector<std::string> &args, RunSpec *spec,
               std::string *error)
{
    for (size_t i = 0; i < args.size(); i += 2) {
        const SpecFlag *flag = findFlag(args[i]);
        if (i + 1 >= args.size())
            *error = strfmt("flag '%s' is missing its value",
                            args[i].c_str());
        else if (!flag)
            *error = strfmt("unknown flag '%s'", args[i].c_str());
        else
            *error = flag->set(flag->name, args[i + 1], spec);
        if (!error->empty())
            return false;
    }
    *error = validateRunSpec(*spec);
    return error->empty();
}

} // namespace

bool
parseRunSpec(const std::vector<std::string> &args, RunSpec *spec,
             std::string *error)
{
    if (!parseSpecFlags(args, spec, error))
        return false;
    if (spec->workload.empty()) {
        *error = "missing --workload";
        return false;
    }
    return true;
}

bool
parseRunSpecTemplate(const std::vector<std::string> &args, RunSpec *spec,
                     std::string *error)
{
    return parseSpecFlags(args, spec, error);
}

bool
parseRunSpecs(const std::vector<std::string> &args,
              std::vector<RunSpec> *specs, std::string *error)
{
    specs->clear();
    error->clear();

    // Split each sweep flag's comma list (its last occurrence wins);
    // everything else passes through untouched.
    const std::vector<SpecFlag> &flags = specFlags();
    std::vector<std::vector<std::string>> sweeps(flags.size());
    std::vector<std::string> rest;
    for (size_t i = 0; i < args.size(); ++i) {
        const SpecFlag *flag = findFlag(args[i]);
        if (!flag || !flag->sweeps) {
            rest.push_back(args[i]);
            continue;
        }
        if (i + 1 >= args.size()) {
            *error = strfmt("flag '%s' is missing its value", flag->name);
            return false;
        }
        std::vector<std::string> values = split(args[++i], ',');
        if (values.empty()) {
            *error = strfmt("flag '%s' has an empty value", flag->name);
            return false;
        }
        for (const std::string &value : values) {
            if (value.empty()) {
                *error = strfmt("flag '%s' has an empty sweep entry",
                                flag->name);
                return false;
            }
        }
        sweeps[static_cast<size_t>(flag - flags.data())] =
            std::move(values);
    }

    // Cross-product in table order: each sweep nests inside the ones
    // above it, so batches stay grouped for every sink and dtype
    // (last) varies fastest, landing a configuration's precision
    // variants adjacent in the stream.
    std::vector<std::vector<std::string>> variants = {rest};
    for (size_t f = 0; f < flags.size(); ++f) {
        if (sweeps[f].empty())
            continue;
        std::vector<std::vector<std::string>> nested;
        for (const std::vector<std::string> &variant : variants) {
            for (const std::string &value : sweeps[f]) {
                nested.push_back(variant);
                nested.back().insert(nested.back().end(),
                                     {flags[f].name, value});
            }
        }
        variants = std::move(nested);
    }
    for (const std::vector<std::string> &variant : variants) {
        RunSpec spec;
        if (!parseRunSpec(variant, &spec, error))
            return false;
        specs->push_back(std::move(spec));
    }
    return true;
}

} // namespace runner
} // namespace mmbench
