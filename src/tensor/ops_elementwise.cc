/**
 * @file
 * Pointwise operators: binary with broadcasting, scalar, unary.
 */

#include "tensor/ops.hh"

#include <algorithm>
#include <cmath>
#include <functional>

#include "core/logging.hh"
#include "core/parallel.hh"
#include "tensor/ops_common.hh"
#include "trace/sink.hh"

namespace mmbench {
namespace tensor {

namespace detail {

bool
isSuffix(const Shape &small, const Shape &big)
{
    if (small.ndim() > big.ndim())
        return false;
    size_t off = big.ndim() - small.ndim();
    for (size_t i = 0; i < small.ndim(); ++i) {
        if (small[i] != big[off + i])
            return false;
    }
    return true;
}

std::vector<int64_t>
broadcastStrides(const Shape &in, const Shape &out)
{
    std::vector<int64_t> in_strides = in.strides();
    std::vector<int64_t> s(out.ndim(), 0);
    size_t off = out.ndim() - in.ndim();
    for (size_t i = 0; i < in.ndim(); ++i)
        s[off + i] = (in[i] == 1 && out[off + i] != 1) ? 0 : in_strides[i];
    return s;
}

} // namespace detail

using detail::broadcastStrides;
using detail::isSuffix;

namespace {

/** Pointwise work per parallelFor chunk; amortizes dispatch cost. */
constexpr int64_t kPointwiseGrain = 1 << 14;

/**
 * Apply a binary functor with NumPy broadcasting semantics.
 * Fast paths: identical shapes; b broadcast over leading dims of a
 * (classic bias add). These run on the parallel runtime (disjoint
 * output chunks; deterministic for any thread count). Falls back to a
 * serial generic strided walk.
 */
template <typename F>
Tensor
binaryOp(const Tensor &a, const Tensor &b, F f, const char *name,
         uint64_t flops_per_elem = 1)
{
    const Shape out_shape = broadcastShapes(a.shape(), b.shape());
    Tensor out(out_shape);
    const int64_t n = out.numel();
    const float *pa = a.data();
    const float *pb = b.data();
    float *po = out.data();

    if (a.shape() == b.shape()) {
        core::parallelFor(0, n, kPointwiseGrain,
                          [&](int64_t i0, int64_t i1) {
            for (int64_t i = i0; i < i1; ++i)
                po[i] = f(pa[i], pb[i]);
        });
    } else if (out_shape == a.shape() && b.numel() >= 1 &&
               n % b.numel() == 0 && isSuffix(b.shape(), a.shape())) {
        const int64_t nb = b.numel();
        core::parallelFor(0, n / nb, std::max<int64_t>(
                              1, kPointwiseGrain / nb),
                          [&](int64_t r0, int64_t r1) {
            for (int64_t r = r0; r < r1; ++r) {
                for (int64_t j = 0; j < nb; ++j)
                    po[r * nb + j] = f(pa[r * nb + j], pb[j]);
            }
        });
    } else if (out_shape == b.shape() && a.numel() >= 1 &&
               n % a.numel() == 0 && isSuffix(a.shape(), b.shape())) {
        const int64_t na = a.numel();
        core::parallelFor(0, n / na, std::max<int64_t>(
                              1, kPointwiseGrain / na),
                          [&](int64_t r0, int64_t r1) {
            for (int64_t r = r0; r < r1; ++r) {
                for (int64_t j = 0; j < na; ++j)
                    po[r * na + j] = f(pa[j], pb[r * na + j]);
            }
        });
    } else {
        // Generic strided broadcast walk.
        const size_t nd = out_shape.ndim();
        std::vector<int64_t> out_strides = out_shape.strides();
        std::vector<int64_t> sa = broadcastStrides(a.shape(), out_shape);
        std::vector<int64_t> sb = broadcastStrides(b.shape(), out_shape);
        std::vector<int64_t> idx(nd, 0);
        int64_t off_a = 0, off_b = 0;
        for (int64_t i = 0; i < n; ++i) {
            po[i] = f(pa[off_a], pb[off_b]);
            // Increment the multi-index odometer-style.
            for (size_t d = nd; d-- > 0;) {
                ++idx[d];
                off_a += sa[d];
                off_b += sb[d];
                if (idx[d] < out_shape[d])
                    break;
                off_a -= sa[d] * idx[d];
                off_b -= sb[d] * idx[d];
                idx[d] = 0;
            }
        }
    }

    trace::emitKernel(trace::KernelClass::Elewise, name,
                      static_cast<uint64_t>(n) * flops_per_elem,
                      a.bytes() + b.bytes(), out.bytes());
    return out;
}

template <typename F>
Tensor
unaryOp(const Tensor &a, F f, const char *name,
        trace::KernelClass kclass = trace::KernelClass::Elewise,
        uint64_t flops_per_elem = 1)
{
    Tensor out(a.shape());
    const int64_t n = a.numel();
    const float *pa = a.data();
    float *po = out.data();
    core::parallelFor(0, n, kPointwiseGrain, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            po[i] = f(pa[i]);
    });
    trace::emitKernel(kclass, name,
                      static_cast<uint64_t>(n) * flops_per_elem,
                      a.bytes(), out.bytes());
    return out;
}

} // namespace

Tensor
add(const Tensor &a, const Tensor &b)
{
    return binaryOp(a, b, std::plus<float>(), "add");
}

Tensor
sub(const Tensor &a, const Tensor &b)
{
    return binaryOp(a, b, std::minus<float>(), "sub");
}

Tensor
mul(const Tensor &a, const Tensor &b)
{
    return binaryOp(a, b, std::multiplies<float>(), "mul");
}

Tensor
div(const Tensor &a, const Tensor &b)
{
    return binaryOp(a, b, std::divides<float>(), "div");
}

Tensor
addScalar(const Tensor &a, float s)
{
    return unaryOp(a, [s](float x) { return x + s; }, "add_scalar");
}

Tensor
mulScalar(const Tensor &a, float s)
{
    return unaryOp(a, [s](float x) { return x * s; }, "mul_scalar");
}

Tensor
neg(const Tensor &a)
{
    return unaryOp(a, [](float x) { return -x; }, "neg");
}

Tensor
reluF(const Tensor &a)
{
    return unaryOp(a, [](float x) { return applyAct(ActKind::Relu, x); },
                   "relu", trace::KernelClass::Relu);
}

Tensor
gtZeroMask(const Tensor &a)
{
    return unaryOp(a, [](float x) { return x > 0.0f ? 1.0f : 0.0f; },
                   "relu_backward", trace::KernelClass::Relu);
}

Tensor
sigmoidF(const Tensor &a)
{
    return unaryOp(a, [](float x) { return applyAct(ActKind::Sigmoid, x); },
                   "sigmoid", trace::KernelClass::Elewise,
                   actFlops(ActKind::Sigmoid));
}

Tensor
tanhF(const Tensor &a)
{
    return unaryOp(a, [](float x) { return applyAct(ActKind::Tanh, x); },
                   "tanh", trace::KernelClass::Elewise,
                   actFlops(ActKind::Tanh));
}

Tensor
geluF(const Tensor &a)
{
    return unaryOp(a, [](float x) { return applyAct(ActKind::Gelu, x); },
                   "gelu", trace::KernelClass::Elewise,
                   actFlops(ActKind::Gelu));
}

Tensor
expF(const Tensor &a)
{
    return unaryOp(a, [](float x) { return std::exp(x); }, "exp",
                   trace::KernelClass::Elewise, 2);
}

Tensor
logF(const Tensor &a)
{
    return unaryOp(a, [](float x) { return std::log(x); }, "log",
                   trace::KernelClass::Elewise, 2);
}

Tensor
sqrtF(const Tensor &a)
{
    return unaryOp(a, [](float x) { return std::sqrt(x); }, "sqrt",
                   trace::KernelClass::Elewise, 2);
}

Tensor
squareF(const Tensor &a)
{
    return unaryOp(a, [](float x) { return x * x; }, "square");
}

Tensor
absF(const Tensor &a)
{
    return unaryOp(a, [](float x) { return std::fabs(x); }, "abs");
}

Tensor
clampF(const Tensor &a, float lo, float hi)
{
    MM_ASSERT(lo <= hi, "clamp range [%f, %f] is empty",
              static_cast<double>(lo), static_cast<double>(hi));
    return unaryOp(a, [lo, hi](float x) {
        return x < lo ? lo : (x > hi ? hi : x);
    }, "clamp");
}

Tensor
dropoutMask(const Shape &shape, float p, Rng &rng)
{
    MM_ASSERT(p >= 0.0f && p < 1.0f, "dropout p=%f outside [0, 1)",
              static_cast<double>(p));
    Tensor mask(shape);
    const float scale = 1.0f / (1.0f - p);
    float *pm = mask.data();
    const int64_t n = mask.numel();
    for (int64_t i = 0; i < n; ++i)
        pm[i] = rng.bernoulli(p) ? 0.0f : scale;
    trace::emitKernel(trace::KernelClass::Elewise, "dropout_mask",
                      static_cast<uint64_t>(n), 0, mask.bytes());
    return mask;
}

float
maxAbsDiff(const Tensor &a, const Tensor &b)
{
    MM_ASSERT(a.shape() == b.shape(), "maxAbsDiff shape mismatch %s vs %s",
              a.shape().toString().c_str(), b.shape().toString().c_str());
    const float *pa = a.data();
    const float *pb = b.data();
    float worst = 0.0f;
    for (int64_t i = 0; i < a.numel(); ++i)
        worst = std::max(worst, std::fabs(pa[i] - pb[i]));
    return worst;
}

bool
allClose(const Tensor &a, const Tensor &b, float tol)
{
    return a.shape() == b.shape() && maxAbsDiff(a, b) <= tol;
}

} // namespace tensor
} // namespace mmbench
