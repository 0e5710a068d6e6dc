#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "core/logging.hh"
#include "core/parallel.hh"
#include "models/registry.hh"
#include "pipeline/fuseplan.hh"
#include "pipeline/stagepipe.hh"
#include "tensor/pool.hh"

namespace perfbench {

namespace mm = mmbench;

namespace {

// Flags shared by both serve workloads: four request slots on four
// worker threads, so the pool is spent on request concurrency.
std::vector<std::string>
serveFlags(const std::string &model, const std::string &batch,
           const std::string &scale, std::vector<std::string> extra)
{
    std::vector<std::string> flags = {
        "--workload", model,   "--mode",     "serve", "--batch",
        batch,        "--scale", scale,      "--threads", "4",
        "--inflight", "4"};
    flags.insert(flags.end(), extra.begin(), extra.end());
    return flags;
}

std::vector<WorkloadDef>
buildWorkloads()
{
    std::vector<WorkloadDef> defs;

    WorkloadDef seg;
    seg.name = "infer-seg";
    seg.why = "medical-seg U-Net, batch 8, 4 threads: conv/maxpool/"
              "batchnorm bound, the largest activations (arena, memory "
              "plan), speeds up with threads";
    seg.model = "medical-seg";
    defs.push_back(seg);

    WorkloadDef attn;
    attn.name = "infer-attn";
    attn.why = "cmu-mosei transformer, batch 8, 4 threads: GEMM, "
               "softmax, tanh, layernorm on small tensors, no conv or "
               "pool; gains little from threads";
    attn.model = "cmu-mosei";
    defs.push_back(attn);

    WorkloadDef pipe;
    pipe.name = "serve-pipe";
    pipe.why = "transfuser serving through StagePipe with continuous "
               "batching and fused kernels, clean open-loop (400 rps) "
               "and closed-loop (4 clients) traffic";
    pipe.model = "transfuser";
    pipe.serve = true;
    pipe.batch = 2;
    pipe.scale = 0.5f;
    pipe.fuseKernels = true;
    pipe.threads = 1;
    pipe.expectAllOk = true;
    const std::vector<std::string> engine = {"--pipeline", "on",
                                             "--fusion", "on"};
    std::vector<std::string> open = engine;
    open.insert(open.end(), {"--arrival", "poisson", "--rate", "400",
                             "--batcher", "continuous", "--max-batch",
                             "8"});
    pipe.phases.push_back(
        {"open", serveFlags("transfuser", "2", "0.5", open), 400.0, 0.8});
    pipe.phases.push_back(
        {"closed", serveFlags("transfuser", "2", "0.5", engine), 1000.0,
         0.2});
    defs.push_back(pipe);

    WorkloadDef faulty;
    faulty.name = "serve-faulty";
    faulty.why = "medical-seg serving at 600 rps with injected drops, "
                 "stragglers and failures: fault lookup, pruning, zero "
                 "imputation, retries, union-mask batching, shedding";
    faulty.model = "medical-seg";
    faulty.serve = true;
    faulty.batch = 2;
    faulty.threads = 1;
    // Drops name two of the four MRI sequences: a batch takes the union
    // of its members' masks, and `mod=*` can drop all four and abort
    // the U-Net head (see benchmark/README.md).
    faulty.phases.push_back(
        {"open",
         serveFlags("medical-seg", "2", "1.0",
                    {"--max-batch", "4", "--arrival", "poisson", "--rate",
                     "600", "--faults",
                     "drop_modality:mod=T2:p=0.1;"
                     "drop_modality:mod=Flair:p=0.1;"
                     "slow:node=encoder:*:p=0.02:x=4;"
                     "fail:node=fusion:p=0.02",
                     "--retries", "3", "--deadline-ms", "100"}),
         600.0, 1.0});
    defs.push_back(faulty);
    return defs;
}

/** L2 norm plus 64 evenly strided values of an output tensor. */
JsonValue
fingerprint(const mm::tensor::Tensor &t)
{
    const float *p = t.data();
    const int64_t n = t.numel();
    double l2 = 0.0;
    for (int64_t i = 0; i < n; ++i)
        l2 += static_cast<double>(p[i]) * static_cast<double>(p[i]);
    JsonValue shape = JsonValue::array();
    for (int64_t d : t.shape().dims())
        shape.push(d);
    JsonValue values = JsonValue::array();
    const int64_t stride = std::max<int64_t>(1, n / 64);
    for (int64_t i = 0; i < 64 && i * stride < n; ++i)
        values.push(static_cast<double>(p[i * stride]));
    JsonValue fp = JsonValue::object();
    fp.set("shape", shape);
    fp.set("l2", std::sqrt(l2));
    fp.set("values", values);
    return fp;
}

/** Empty when `got` is within rel-L2 `tol` of `want`, else why not. */
std::string
compareFingerprints(const JsonValue &got, const JsonValue &want,
                    double tol)
{
    const JsonValue *ws = want.find("shape");
    const JsonValue *wl = want.find("l2");
    const JsonValue *wv = want.find("values");
    if (!ws || !wl || !wv || !wv->isArray())
        return "malformed reference entry";
    if (got.find("shape")->dump() != ws->dump())
        return "output shape " + got.find("shape")->dump() +
               " != reference " + ws->dump();
    const double ref_l2 = wl->numberValue();
    const double l2 = got.find("l2")->numberValue();
    if (std::fabs(l2 - ref_l2) > tol * std::max(ref_l2, 1e-30))
        return "output L2 " + std::to_string(l2) + " != reference " +
               std::to_string(ref_l2);
    const JsonValue &gv = *got.find("values");
    if (gv.size() != wv->size())
        return "fingerprint length differs";
    double diff2 = 0.0, ref2 = 0.0;
    for (size_t i = 0; i < gv.size(); ++i) {
        const double d = gv.at(i).numberValue() - wv->at(i).numberValue();
        diff2 += d * d;
        ref2 += wv->at(i).numberValue() * wv->at(i).numberValue();
    }
    if (std::sqrt(diff2) > tol * std::sqrt(std::max(ref2, 1e-60)))
        return "strided output values differ from the reference "
               "(rel-L2 " +
               std::to_string(std::sqrt(diff2 / std::max(ref2, 1e-60))) +
               ")";
    return "";
}

JsonValue
readReference(std::string *error)
{
    std::ifstream in(kReferencePath);
    if (!in) {
        *error = std::string("cannot read ") + kReferencePath;
        return JsonValue();
    }
    std::stringstream text;
    text << in.rdbuf();
    return JsonValue::parse(text.str(), error);
}

/** 1-thread output of the model's own batch. */
mm::tensor::Tensor
referenceOutput(Model &model)
{
    mm::core::ScopedNumThreads one(1);
    return model.forward().value();
}

} // namespace

const std::vector<WorkloadDef> &
workloads()
{
    static const std::vector<WorkloadDef> defs = buildWorkloads();
    return defs;
}

mm::autograd::Var
Model::forward(mm::pipeline::GraphRun *run)
{
    mm::autograd::NoGradGuard no_grad;
    return net->forwardGraph(batch, mm::pipeline::ScheduleOptions(), run);
}

std::unique_ptr<Model>
makeModel(const WorkloadDef &def, uint64_t seed, int64_t batch)
{
    auto model = std::make_unique<Model>();
    if (def.fuseKernels) {
        mm::solver::Config config;
        config.fusionEnabled = true;
        model->solver = std::make_unique<mm::solver::ScopedConfig>(config);
    }
    const mm::models::WorkloadRegistry &registry =
        mm::models::WorkloadRegistry::instance();
    const mm::models::WorkloadEntry *entry = registry.find(def.model);
    if (!entry)
        MM_FATAL("workload '%s' is not registered", def.model.c_str());
    mm::models::WorkloadConfig config;
    config.fusionKind = entry->defaultFusion;
    config.sizeScale = def.scale;
    config.seed = seed;
    model->net = registry.create(def.model, config);
    model->net->train(false);
    if (def.fuseKernels)
        model->fusedGroups =
            mm::pipeline::collectFusionReport(*model->net).fusedGroups;
    model->batch = model->net->makeTask(seed).sample(batch);
    model->net->memoryPlan(mm::pipeline::SchedPolicy::Sequential);
    model->net->memoryPlan(mm::pipeline::SchedPolicy::Parallel);
    return model;
}

bool
bitwiseEqual(const mm::tensor::Tensor &a, const mm::tensor::Tensor &b)
{
    if (!a.defined() || !b.defined() ||
        a.shape().dims() != b.shape().dims())
        return false;
    return std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

Checks
runChecks(const WorkloadDef &def, Model &model, uint64_t seed)
{
    Checks checks;
    checks.reference = referenceOutput(model);

    if (seed == kReferenceSeed) {
        std::string error;
        const JsonValue ref = readReference(&error);
        const JsonValue *entry =
            error.empty() && ref.find("workloads")
                ? ref.find("workloads")->find(def.name)
                : nullptr;
        if (!entry) {
            checks.failures.push_back(
                "no reference fingerprint for " + def.name +
                (error.empty() ? "" : ": " + error));
        } else {
            const std::string why = compareFingerprints(
                fingerprint(checks.reference), *entry, 1e-4);
            if (!why.empty())
                checks.failures.push_back("fingerprint: " + why);
        }
    }

    // Eight concurrent batch-2 requests through the pipelined engine
    // must equal the unpipelined forward bitwise.
    constexpr int kRequests = 8;
    mm::models::MultiModalWorkload &net = *model.net;
    mm::data::SyntheticTask task = net.makeTask(seed + 1);
    std::vector<mm::data::Batch> batches;
    for (int i = 0; i < kRequests; ++i)
        batches.push_back(task.sample(2));
    std::vector<mm::tensor::Tensor> expect(kRequests), got(kRequests);
    std::vector<std::string> errors(kRequests);
    {
        mm::core::ScopedNumThreads one(1);
        for (int i = 0; i < kRequests; ++i) {
            mm::autograd::NoGradGuard no_grad;
            expect[static_cast<size_t>(i)] =
                net.forwardGraph(batches[static_cast<size_t>(i)],
                                 mm::pipeline::ScheduleOptions())
                    .value();
        }
        mm::pipeline::StagePipe pipe(
            net.stageGraph(),
            &net.memoryPlan(mm::pipeline::SchedPolicy::Parallel),
            net.stashSlots());
        const std::string tag =
            mm::fusion::fusionKindName(net.config().fusionKind);
        std::vector<std::thread> slots;
        for (int i = 0; i < kRequests; ++i) {
            slots.emplace_back([&, i] {
                const size_t k = static_cast<size_t>(i);
                try {
                    mm::autograd::NoGradGuard no_grad;
                    mm::tensor::RequestArenaScope arena;
                    mm::pipeline::PipeRequest request;
                    request.batch = &batches[k];
                    request.tag = tag;
                    got[k] = pipe.execute(request).output.value();
                } catch (const std::exception &e) {
                    errors[k] = e.what();
                }
            });
        }
        for (std::thread &slot : slots)
            slot.join();
    }
    for (size_t i = 0; i < expect.size(); ++i) {
        if (!errors[i].empty())
            checks.failures.push_back("StagePipe request " +
                                      std::to_string(i) + " threw: " +
                                      errors[i]);
        else if (!bitwiseEqual(got[i], expect[i]))
            checks.failures.push_back("StagePipe request " +
                                      std::to_string(i) +
                                      " differs from forwardGraph");
    }
    return checks;
}

bool
writeReference(const std::vector<const WorkloadDef *> &defs)
{
    std::string error;
    JsonValue ref = readReference(&error);
    if (!error.empty() || !ref.find("workloads"))
        ref = JsonValue::object();
    JsonValue table = ref.find("workloads") ? *ref.find("workloads")
                                            : JsonValue::object();
    for (const WorkloadDef *def : defs) {
        auto model = makeModel(*def, kReferenceSeed, def->batch);
        table.set(def->name, fingerprint(referenceOutput(*model)));
    }
    JsonValue out = JsonValue::object();
    out.set("seed", static_cast<int64_t>(kReferenceSeed));
    out.set("workloads", table);
    std::ofstream file(kReferencePath);
    file << out.dump() << "\n";
    return static_cast<bool>(file);
}

} // namespace perfbench
