#include "solver/registry.hh"

#include <chrono>
#include <limits>

#include "core/logging.hh"
#include "core/parallel.hh"
#include "solver/config.hh"
#include "solver/perfdb.hh"
#include "tensor/ops.hh"
#include "trace/sink.hh"

namespace mmbench {
namespace solver {

namespace {

using tensor::ActKind;
using tensor::ConvAlgo;
using tensor::GemmAlgo;
using tensor::Tensor;

/**
 * Above this many multiply-accumulates the direct-loop candidates bow
 * out: they cannot win, and autotune would waste its search budget
 * timing them.
 */
constexpr int64_t kDirectCandidateMacLimit = 1 << 22;

/**
 * GEMMs narrower than this many output features stay f32 even under a
 * reduced compute dtype: they are the logits / regression heads (the
 * "last layer stays full precision" quantization rule).
 */
constexpr int64_t kMinReducedHeadN = 16;

/**
 * Convs reading at most this many input channels are the stem on raw
 * sensor data and stay f32 (the "first layer stays full precision"
 * quantization rule).
 */
constexpr int64_t kMaxF32StemChannels = 3;

/** Production GEMM heuristic (blocked with a tiny-shape direct path). */
class GemmAutoSolver : public Solver
{
  public:
    const char *name() const override { return "gemm_auto"; }
    bool isApplicable(const ProblemDesc &desc) const override
    {
        return desc.kind == ProblemKind::Gemm &&
               desc.dtype == tensor::DType::F32 && desc.m >= 1 &&
               desc.k >= 1 && desc.n >= 1;
    }
    Tensor solve(const ProblemDesc &desc,
                 const ProblemArgs &args) const override
    {
        return tensor::linearAct(*args.x, *args.w, *args.bias, desc.act,
                                 GemmAlgo::Auto);
    }
};

/** Plain i-k-j loop: the tiny-shape candidate. */
class GemmDirectSolver : public Solver
{
  public:
    const char *name() const override { return "gemm_direct"; }
    bool isApplicable(const ProblemDesc &desc) const override
    {
        return desc.kind == ProblemKind::Gemm &&
               desc.dtype == tensor::DType::F32 && desc.m >= 1 &&
               desc.k >= 1 && desc.n >= 1 &&
               desc.macs() <= kDirectCandidateMacLimit;
    }
    Tensor solve(const ProblemDesc &desc,
                 const ProblemArgs &args) const override
    {
        return tensor::linearAct(*args.x, *args.w, *args.bias, desc.act,
                                 GemmAlgo::Direct);
    }
};

/** Production conv heuristic (direct below the MAC limit, else GEMM). */
class ConvAutoSolver : public Solver
{
  public:
    const char *name() const override { return "conv_auto"; }
    bool isApplicable(const ProblemDesc &desc) const override
    {
        return desc.kind == ProblemKind::Conv2d &&
               desc.dtype == tensor::DType::F32;
    }
    Tensor solve(const ProblemDesc &desc,
                 const ProblemArgs &args) const override
    {
        return tensor::conv2dAct(*args.x, *args.w, *args.bias, desc.stride,
                                 desc.pad, desc.act, ConvAlgo::Auto);
    }
};

/**
 * The implicit GEMM lowering at any size (no column matrix; the name
 * predates it and keys existing perf-db entries).
 */
class ConvIm2colSolver : public Solver
{
  public:
    const char *name() const override { return "conv_im2col"; }
    bool isApplicable(const ProblemDesc &desc) const override
    {
        return desc.kind == ProblemKind::Conv2d &&
               desc.dtype == tensor::DType::F32;
    }
    Tensor solve(const ProblemDesc &desc,
                 const ProblemArgs &args) const override
    {
        return tensor::conv2dAct(*args.x, *args.w, *args.bias, desc.stride,
                                 desc.pad, desc.act, ConvAlgo::Im2col);
    }
};

/** Direct loop at any size (bounded: it cannot win large shapes). */
class ConvDirectSolver : public Solver
{
  public:
    const char *name() const override { return "conv_direct"; }
    bool isApplicable(const ProblemDesc &desc) const override
    {
        return desc.kind == ProblemKind::Conv2d &&
               desc.dtype == tensor::DType::F32 &&
               desc.macs() <= kDirectCandidateMacLimit;
    }
    Tensor solve(const ProblemDesc &desc,
                 const ProblemArgs &args) const override
    {
        return tensor::conv2dAct(*args.x, *args.w, *args.bias, desc.stride,
                                 desc.pad, desc.act, ConvAlgo::Direct);
    }
};

/** Fused layernorm + activation (single write pass). */
class LayerNormActSolver : public Solver
{
  public:
    const char *name() const override { return "layernorm_fused"; }
    bool isApplicable(const ProblemDesc &desc) const override
    {
        return desc.kind == ProblemKind::NormAct &&
               desc.dtype == tensor::DType::F32 &&
               desc.norm == NormKind::LayerNorm;
    }
    Tensor solve(const ProblemDesc &desc,
                 const ProblemArgs &args) const override
    {
        return tensor::layernormAct(*args.x, *args.gamma, *args.beta,
                                    args.eps, desc.act);
    }
};

/** Fused inference batchnorm + activation (single write pass). */
class BatchNormEvalActSolver : public Solver
{
  public:
    const char *name() const override { return "batchnorm_fused"; }
    bool isApplicable(const ProblemDesc &desc) const override
    {
        return desc.kind == ProblemKind::NormAct &&
               desc.dtype == tensor::DType::F32 &&
               desc.norm == NormKind::BatchNormEval;
    }
    Tensor solve(const ProblemDesc &desc,
                 const ProblemArgs &args) const override
    {
        return tensor::batchnorm2dEvalAct(*args.x, *args.gamma, *args.beta,
                                          *args.mean, *args.var, args.eps,
                                          desc.act);
    }
};

using tensor::DType;

/**
 * Cast-both reduced GEMM: the activation is lowered to the problem
 * dtype per call and the weight cast is cached, so both GEMM operands
 * move at reduced width (the bandwidth-win flavor).
 */
class GemmDtSolver : public Solver
{
  public:
    explicit GemmDtSolver(DType dt) : dt_(dt) {}
    const char *name() const override
    {
        switch (dt_) {
          case DType::BF16: return "gemm_bf16";
          case DType::F16:  return "gemm_f16";
          case DType::I8:   return "gemm_i8";
          case DType::F32:  break;
        }
        return "gemm_auto";
    }
    bool isApplicable(const ProblemDesc &desc) const override
    {
        return desc.kind == ProblemKind::Gemm && desc.dtype == dt_ &&
               desc.m >= 1 && desc.k >= 1 && desc.n >= 1;
    }
    Tensor solve(const ProblemDesc &desc,
                 const ProblemArgs &args) const override
    {
        const Tensor xq = tensor::castTo(*args.x, dt_);
        const Tensor wq = tensor::castWeightCached(*args.w, dt_);
        return tensor::linearActDt(xq, wq, *args.bias, desc.act);
    }

  private:
    DType dt_;
};

/**
 * Mixed-input reduced GEMM: the activation stays f32 (no per-call
 * cast) and only the cached weight is reduced. Cheaper for small
 * batches, where the activation cast dominates.
 */
class GemmDtMixedSolver : public Solver
{
  public:
    explicit GemmDtMixedSolver(DType dt) : dt_(dt) {}
    const char *name() const override
    {
        switch (dt_) {
          case DType::BF16: return "gemm_bf16_mixed";
          case DType::F16:  return "gemm_f16_mixed";
          case DType::I8:   return "gemm_i8_mixed";
          case DType::F32:  break;
        }
        return "gemm_auto";
    }
    bool isApplicable(const ProblemDesc &desc) const override
    {
        return desc.kind == ProblemKind::Gemm && desc.dtype == dt_ &&
               desc.m >= 1 && desc.k >= 1 && desc.n >= 1;
    }
    Tensor solve(const ProblemDesc &desc,
                 const ProblemArgs &args) const override
    {
        const Tensor wq = tensor::castWeightCached(*args.w, dt_);
        return tensor::linearActDt(*args.x, wq, *args.bias, desc.act);
    }

  private:
    DType dt_;
};

/**
 * Reduced conv with a lowered input: the GEMM's B operand carries the
 * reduced payload (i8 quantizes both sides and accumulates in i32).
 */
class ConvDtSolver : public Solver
{
  public:
    explicit ConvDtSolver(DType dt) : dt_(dt) {}
    const char *name() const override
    {
        switch (dt_) {
          case DType::BF16: return "conv_bf16";
          case DType::F16:  return "conv_f16";
          case DType::I8:   return "conv_i8";
          case DType::F32:  break;
        }
        return "conv_auto";
    }
    bool isApplicable(const ProblemDesc &desc) const override
    {
        return desc.kind == ProblemKind::Conv2d && desc.dtype == dt_;
    }
    Tensor solve(const ProblemDesc &desc,
                 const ProblemArgs &args) const override
    {
        const Tensor wq = tensor::castWeightCached(*args.w, dt_);
        return tensor::conv2dActDt(*args.x, wq, *args.bias, desc.stride,
                                   desc.pad, desc.act,
                                   /*cast_input=*/true);
    }

  private:
    DType dt_;
};

/**
 * Weights-only reduced conv: the f32 image x reduced weights
 * (skips the input cast; not available for i8, whose i32 path needs
 * both operands quantized).
 */
class ConvDtMixedSolver : public Solver
{
  public:
    explicit ConvDtMixedSolver(DType dt) : dt_(dt) {}
    const char *name() const override
    {
        switch (dt_) {
          case DType::BF16: return "conv_bf16_w";
          case DType::F16:  return "conv_f16_w";
          case DType::I8:
          case DType::F32:  break;
        }
        return "conv_auto";
    }
    bool isApplicable(const ProblemDesc &desc) const override
    {
        return desc.kind == ProblemKind::Conv2d && desc.dtype == dt_ &&
               dt_ != DType::I8;
    }
    Tensor solve(const ProblemDesc &desc,
                 const ProblemArgs &args) const override
    {
        const Tensor wq = tensor::castWeightCached(*args.w, dt_);
        return tensor::conv2dActDt(*args.x, wq, *args.bias, desc.stride,
                                   desc.pad, desc.act,
                                   /*cast_input=*/false);
    }

  private:
    DType dt_;
};

} // namespace

Registry::Registry()
{
    // Registration order is priority order: with autotune off the
    // first applicable candidate runs, and the auto solvers reproduce
    // the production dispatch bitwise.
    solvers_.push_back(std::unique_ptr<Solver>(new GemmAutoSolver()));
    solvers_.push_back(std::unique_ptr<Solver>(new GemmDirectSolver()));
    solvers_.push_back(std::unique_ptr<Solver>(new ConvAutoSolver()));
    solvers_.push_back(std::unique_ptr<Solver>(new ConvIm2colSolver()));
    solvers_.push_back(std::unique_ptr<Solver>(new ConvDirectSolver()));
    solvers_.push_back(std::unique_ptr<Solver>(new LayerNormActSolver()));
    solvers_.push_back(std::unique_ptr<Solver>(new BatchNormEvalActSolver()));
    // Reduced-precision candidates. Two flavors per dtype (cast-both
    // vs mixed/weights-only) give autotune a genuine search space; i8
    // conv has a single lowering (i32 needs both operands quantized).
    // For GEMM the mixed flavor leads: deep Linear chains (the MLP
    // workloads) re-round the activations at every layer under
    // cast-both, compounding to rel-L2 > 1e-2, while f32 activations
    // x reduced weights stay well inside the accuracy bar and skip
    // the per-call activation cast. For conv the cast-both flavor
    // leads: the lowered input dominates the GEMM-operand bandwidth
    // (the actual speedup lever) and conv stacks are shallow enough
    // that the extra rounding stays harmless.
    for (DType dt : {DType::BF16, DType::F16, DType::I8}) {
        solvers_.push_back(
            std::unique_ptr<Solver>(new GemmDtMixedSolver(dt)));
        solvers_.push_back(std::unique_ptr<Solver>(new GemmDtSolver(dt)));
        solvers_.push_back(std::unique_ptr<Solver>(new ConvDtSolver(dt)));
        if (dt != DType::I8)
            solvers_.push_back(
                std::unique_ptr<Solver>(new ConvDtMixedSolver(dt)));
    }
}

Registry &
Registry::instance()
{
    static Registry *registry = new Registry(); // leaky: teardown-safe
    return *registry;
}

std::vector<const Solver *>
Registry::applicable(const ProblemDesc &desc) const
{
    std::vector<const Solver *> out;
    for (const auto &s : solvers_)
        if (s->isApplicable(desc))
            out.push_back(s.get());
    return out;
}

const Solver *
Registry::findSolver(const std::string &name) const
{
    for (const auto &s : solvers_)
        if (name == s->name())
            return s.get();
    return nullptr;
}

PerfDb *
Registry::perfDbForPath(const std::string &path)
{
    auto it = dbs_.find(path);
    if (it == dbs_.end())
        it = dbs_.emplace(path, std::unique_ptr<PerfDb>(new PerfDb(path)))
                 .first;
    return it->second.get();
}

const Solver *
Registry::chooseLocked(const ProblemDesc &desc, const ProblemArgs &args,
                       const std::string &key)
{
    auto memo = chosen_.find(key);
    if (memo != chosen_.end())
        return memo->second;

    const std::vector<const Solver *> candidates = applicable(desc);
    MM_ASSERT(!candidates.empty(), "no applicable solver for %s",
              key.c_str());

    const Config &cfg = config();
    const Solver *pick = nullptr;
    if (candidates.size() == 1) {
        // Nothing to tune; skip the db so search_ms stays zero.
        pick = candidates[0];
    } else {
        PerfDb *db = cfg.perfdbPath.empty()
                         ? nullptr
                         : perfDbForPath(cfg.perfdbPath);
        if (cfg.autotune == AutotuneMode::On && db != nullptr) {
            std::string stored;
            if (db->lookup(key, &stored)) {
                const Solver *s = findSolver(stored);
                if (s != nullptr && s->isApplicable(desc)) {
                    counters().perfdbHits.fetch_add(
                        1, std::memory_order_relaxed);
                    pick = s;
                }
            }
        }
        if (pick == nullptr) {
            // Timed search. Candidate runs are traced into a discarded
            // sink so only the winning re-run lands in node timelines.
            // Each candidate gets one untimed warm-up call (its first
            // call pays cold caches, page faults and arena growth),
            // then scores its best of kTimedCalls: the minimum is the
            // sample least disturbed by preemption on a shared host.
            constexpr int kTimedCalls = 3;
            counters().searches.fetch_add(1, std::memory_order_relaxed);
            using clock = std::chrono::steady_clock;
            const auto search_start = clock::now();
            double best_ms = std::numeric_limits<double>::infinity();
            {
                trace::RecordingSink discard;
                trace::ScopedSink guard(discard);
                for (const Solver *cand : candidates) {
                    cand->solve(desc, args);
                    for (int call = 0; call < kTimedCalls; ++call) {
                        const auto t0 = clock::now();
                        cand->solve(desc, args);
                        const double ms =
                            std::chrono::duration<double, std::milli>(
                                clock::now() - t0)
                                .count();
                        if (ms < best_ms) {
                            best_ms = ms;
                            pick = cand;
                        }
                    }
                }
            }
            counters().searchNs.fetch_add(
                static_cast<uint64_t>(
                    std::chrono::duration<double, std::nano>(
                        clock::now() - search_start)
                        .count()),
                std::memory_order_relaxed);
            if (db != nullptr)
                db->store(key, pick->name(), best_ms);
        }
    }

    chosen_[key] = pick;
    return pick;
}

tensor::Tensor
Registry::run(const ProblemDesc &desc, const ProblemArgs &args)
{
    if (desc.act != ActKind::None)
        counters().fusedOps.fetch_add(1, std::memory_order_relaxed);

    if (config().autotune == AutotuneMode::Off) {
        // Deterministic: first applicable candidate, no key building,
        // no db traffic, bitwise-stable selection.
        for (const auto &s : solvers_)
            if (s->isApplicable(desc))
                return s->solve(desc, args);
        MM_PANIC("no applicable solver for problem kind %d",
                 static_cast<int>(desc.kind));
    }

    const std::string key = desc.key();
    const Solver *pick;
    {
        std::lock_guard<std::mutex> lock(mu_);
        pick = chooseLocked(desc, args, key);
    }
    return pick->solve(desc, args);
}

void
Registry::resetRunState()
{
    std::lock_guard<std::mutex> lock(mu_);
    chosen_.clear();
}

namespace {

/** Undefined bias sentinel for the no-bias paths. */
const Tensor &
noBias()
{
    static const Tensor *undefined = new Tensor();
    return *undefined;
}

} // namespace

tensor::Tensor
runLinear(const Tensor &x, const Tensor &w, const Tensor &bias, ActKind act)
{
    ProblemDesc desc;
    desc.kind = ProblemKind::Gemm;
    desc.act = act;
    desc.hasBias = bias.defined();
    desc.dtype = tensor::activeDType();
    desc.k = x.size(-1);
    desc.n = w.size(1);
    desc.m = x.numel() / desc.k;
    desc.batch = 1;
    desc.threads = core::numThreads();
    // Output-head exception (the standard quantization rule: first and
    // last layers stay full precision). A narrow-N GEMM is a logits /
    // regression head whose few output elements carry the whole task
    // metric — reduced rounding there dominates rel-L2 while saving
    // nothing (the weight payload is K x N-tiny). Keep it f32.
    if (desc.n < kMinReducedHeadN)
        desc.dtype = tensor::DType::F32;

    ProblemArgs args;
    args.x = &x;
    args.w = &w;
    args.bias = bias.defined() ? &bias : &noBias();
    return Registry::instance().run(desc, args);
}

tensor::Tensor
runConv2d(const Tensor &x, const Tensor &w, const Tensor &bias, int stride,
          int pad, ActKind act)
{
    ProblemDesc desc;
    desc.kind = ProblemKind::Conv2d;
    desc.act = act;
    desc.hasBias = bias.defined();
    desc.dtype = tensor::activeDType();
    desc.batch = x.size(0);
    desc.c = x.size(1);
    desc.h = x.size(2);
    desc.w = x.size(3);
    desc.oc = w.size(0);
    desc.kh = static_cast<int>(w.size(2));
    desc.kw = static_cast<int>(w.size(3));
    desc.stride = stride;
    desc.pad = pad;
    desc.threads = core::numThreads();
    // First-layer exception (the twin of runLinear's head rule): a
    // conv reading <= 3 channels is the stem on raw sensor input.
    // Rounding the input before any learned redundancy exists injects
    // error that every downstream layer amplifies, and a 3-channel
    // input moves too few bytes for reduced width to matter. Keep
    // the stem f32.
    if (desc.c <= kMaxF32StemChannels)
        desc.dtype = tensor::DType::F32;

    ProblemArgs args;
    args.x = &x;
    args.w = &w;
    args.bias = bias.defined() ? &bias : &noBias();
    return Registry::instance().run(desc, args);
}

tensor::Tensor
runLayerNorm(const Tensor &x, const Tensor &gamma, const Tensor &beta,
             float eps, ActKind act)
{
    ProblemDesc desc;
    desc.kind = ProblemKind::NormAct;
    desc.norm = NormKind::LayerNorm;
    desc.act = act;
    desc.dim = x.size(-1);
    desc.rows = x.numel() / desc.dim;
    desc.threads = core::numThreads();

    ProblemArgs args;
    args.x = &x;
    args.gamma = &gamma;
    args.beta = &beta;
    args.eps = eps;
    return Registry::instance().run(desc, args);
}

tensor::Tensor
runBatchNormEval(const Tensor &x, const Tensor &gamma, const Tensor &beta,
                 const Tensor &running_mean, const Tensor &running_var,
                 float eps, ActKind act)
{
    ProblemDesc desc;
    desc.kind = ProblemKind::NormAct;
    desc.norm = NormKind::BatchNormEval;
    desc.act = act;
    desc.rows = x.size(0) * x.size(1);
    desc.dim = x.size(2) * x.size(3);
    desc.threads = core::numThreads();

    ProblemArgs args;
    args.x = &x;
    args.gamma = &gamma;
    args.beta = &beta;
    args.mean = &running_mean;
    args.var = &running_var;
    args.eps = eps;
    return Registry::instance().run(desc, args);
}

} // namespace solver
} // namespace mmbench
