/**
 * @file
 * Reduction-class operators: sums, means, maxima, softmax.
 */

#include "tensor/ops.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/logging.hh"
#include "core/parallel.hh"
#include "trace/sink.hh"

namespace mmbench {
namespace tensor {

namespace {

/** Normalize a possibly-negative axis index. */
int
normalizeAxis(const Tensor &a, int axis)
{
    int nd = static_cast<int>(a.ndim());
    if (axis < 0)
        axis += nd;
    MM_ASSERT(axis >= 0 && axis < nd, "axis %d out of range for %s",
              axis, a.shape().toString().c_str());
    return axis;
}

/** Output shape after reducing `axis`. */
Shape
reducedShape(const Shape &in, int axis, bool keepdim)
{
    std::vector<int64_t> dims;
    for (size_t i = 0; i < in.ndim(); ++i) {
        if (static_cast<int>(i) == axis) {
            if (keepdim)
                dims.push_back(1);
        } else {
            dims.push_back(in[i]);
        }
    }
    return Shape(std::move(dims));
}

/**
 * Reduce one axis with functor f over (outer, axis, inner) loops.
 * init is the identity element.
 */
template <typename F>
Tensor
reduceAxis(const Tensor &a, int axis, bool keepdim, float init, F f,
           const char *name)
{
    axis = normalizeAxis(a, axis);
    const Shape &in = a.shape();
    int64_t outer = 1, inner = 1;
    for (int i = 0; i < axis; ++i)
        outer *= in[static_cast<size_t>(i)];
    for (size_t i = static_cast<size_t>(axis) + 1; i < in.ndim(); ++i)
        inner *= in[i];
    const int64_t extent = in[static_cast<size_t>(axis)];

    Tensor out = Tensor::full(reducedShape(in, axis, keepdim), init);
    const float *pa = a.data();
    float *po = out.data();
    const int64_t grain =
        std::max<int64_t>(1, (1 << 14) / std::max<int64_t>(1, extent * inner));
    core::parallelFor(0, outer, grain, [&](int64_t o0, int64_t o1) {
        for (int64_t o = o0; o < o1; ++o) {
            const float *base = pa + o * extent * inner;
            float *obase = po + o * inner;
            for (int64_t e = 0; e < extent; ++e) {
                const float *row = base + e * inner;
                for (int64_t i = 0; i < inner; ++i)
                    obase[i] = f(obase[i], row[i]);
            }
        }
    });
    trace::emitKernel(trace::KernelClass::Reduce, name,
                      static_cast<uint64_t>(a.numel()), a.bytes(),
                      out.bytes());
    return out;
}

/** Independent partial sums/maxima per softmax row: one AVX vector. */
constexpr int64_t kRowLanes = 8;

/** Largest element of a non-empty row, reduced in kRowLanes lanes. */
float
rowMax(const float *__restrict row, int64_t cols)
{
    float lanes[kRowLanes];
    for (int64_t l = 0; l < kRowLanes; ++l)
        lanes[l] = row[0];
    int64_t c = 0;
    for (; c + kRowLanes <= cols; c += kRowLanes) {
        for (int64_t l = 0; l < kRowLanes; ++l)
            lanes[l] = std::max(lanes[l], row[c + l]);
    }
    float mx = row[0];
    for (; c < cols; ++c)
        mx = std::max(mx, row[c]);
    for (int64_t l = 0; l < kRowLanes; ++l)
        mx = std::max(mx, lanes[l]);
    return mx;
}

/**
 * orow[c] = e^(row[c] - mx); returns the row sum, accumulated in
 * kRowLanes partial sums combined in a fixed order, so the result does
 * not depend on the thread count.
 */
float
expShiftRow(const float *__restrict row, float *__restrict orow,
            int64_t cols, float mx)
{
    for (int64_t c = 0; c < cols; ++c)
        orow[c] = vexp(row[c] - mx);
    float lanes[kRowLanes] = {};
    int64_t c = 0;
    for (; c + kRowLanes <= cols; c += kRowLanes) {
        for (int64_t l = 0; l < kRowLanes; ++l)
            lanes[l] += orow[c + l];
    }
    float sum = 0.0f;
    for (; c < cols; ++c)
        sum += orow[c];
    for (int64_t l = 0; l < kRowLanes; ++l)
        sum += lanes[l];
    return sum;
}

} // namespace

Tensor
sumAll(const Tensor &a)
{
    // Serial: a single ordered accumulation keeps the result identical
    // for any thread count (and the op is memory-bound anyway).
    double acc = 0.0;
    const float *pa = a.data();
    for (int64_t i = 0; i < a.numel(); ++i)
        acc += pa[i];
    trace::emitKernel(trace::KernelClass::Reduce, "sum_all",
                      static_cast<uint64_t>(a.numel()), a.bytes(),
                      sizeof(float));
    return Tensor::scalar(static_cast<float>(acc));
}

Tensor
meanAll(const Tensor &a)
{
    MM_ASSERT(a.numel() > 0, "meanAll of empty tensor");
    Tensor s = sumAll(a);
    return Tensor::scalar(s.item() / static_cast<float>(a.numel()));
}

Tensor
sumAxis(const Tensor &a, int axis, bool keepdim)
{
    return reduceAxis(a, axis, keepdim, 0.0f,
                      [](float acc, float x) { return acc + x; }, "sum");
}

Tensor
meanAxis(const Tensor &a, int axis, bool keepdim)
{
    int ax = normalizeAxis(a, axis);
    const float extent = static_cast<float>(a.shape()[static_cast<size_t>(ax)]);
    MM_ASSERT(extent > 0, "meanAxis over empty axis");
    Tensor s = sumAxis(a, axis, keepdim);
    float *p = s.data();
    for (int64_t i = 0; i < s.numel(); ++i)
        p[i] /= extent;
    return s;
}

Tensor
maxAxis(const Tensor &a, int axis, bool keepdim)
{
    return reduceAxis(a, axis, keepdim,
                      -std::numeric_limits<float>::infinity(),
                      [](float acc, float x) { return x > acc ? x : acc; },
                      "max");
}

Tensor
argmaxLast(const Tensor &a)
{
    MM_ASSERT(a.ndim() >= 1, "argmaxLast needs rank >= 1");
    const int64_t cols = a.size(-1);
    const int64_t rows = a.numel() / cols;
    std::vector<int64_t> dims(a.shape().dims().begin(),
                              a.shape().dims().end() - 1);
    Tensor out(Shape(std::move(dims)));
    const float *pa = a.data();
    float *po = out.data();
    const int64_t grain = std::max<int64_t>(1, (1 << 14) / cols);
    core::parallelFor(0, rows, grain, [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
            const float *row = pa + r * cols;
            int64_t best = 0;
            for (int64_t c = 1; c < cols; ++c) {
                if (row[c] > row[best])
                    best = c;
            }
            po[r] = static_cast<float>(best);
        }
    });
    trace::emitKernel(trace::KernelClass::Reduce, "argmax",
                      static_cast<uint64_t>(a.numel()), a.bytes(),
                      out.bytes());
    return out;
}

Tensor
softmaxLast(const Tensor &a)
{
    const int64_t cols = a.size(-1);
    const int64_t rows = a.numel() / cols;
    Tensor out(a.shape());
    const float *pa = a.data();
    float *po = out.data();
    const int64_t grain = std::max<int64_t>(1, (1 << 12) / cols);
    core::parallelFor(0, rows, grain, [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
            const float *row = pa + r * cols;
            float *orow = po + r * cols;
            const float inv =
                1.0f / expShiftRow(row, orow, cols, rowMax(row, cols));
            for (int64_t c = 0; c < cols; ++c)
                orow[c] *= inv;
        }
    });
    trace::emitKernel(trace::KernelClass::Reduce, "softmax",
                      static_cast<uint64_t>(a.numel()) * 5, a.bytes(),
                      out.bytes());
    return out;
}

Tensor
logSoftmaxLast(const Tensor &a)
{
    const int64_t cols = a.size(-1);
    const int64_t rows = a.numel() / cols;
    Tensor out(a.shape());
    const float *pa = a.data();
    float *po = out.data();
    const int64_t grain = std::max<int64_t>(1, (1 << 12) / cols);
    core::parallelFor(0, rows, grain, [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
            const float *row = pa + r * cols;
            float *orow = po + r * cols;
            // The exponentials land in orow only as scratch.
            const float mx = rowMax(row, cols);
            const float log_denom =
                std::log(expShiftRow(row, orow, cols, mx)) + mx;
            for (int64_t c = 0; c < cols; ++c)
                orow[c] = row[c] - log_denom;
        }
    });
    trace::emitKernel(trace::KernelClass::Reduce, "log_softmax",
                      static_cast<uint64_t>(a.numel()) * 5, a.bytes(),
                      out.bytes());
    return out;
}

} // namespace tensor
} // namespace mmbench
