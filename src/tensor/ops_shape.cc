/**
 * @file
 * Data-movement operators: transpose/permute, concat/chunk/narrow,
 * padding, broadcast expansion, embedding gather.
 */

#include "tensor/ops.hh"

#include <cstring>

#include "core/logging.hh"
#include "tensor/ops_common.hh"
#include "trace/sink.hh"

namespace mmbench {
namespace tensor {

Tensor
transpose2d(const Tensor &a)
{
    MM_ASSERT(a.ndim() == 2, "transpose2d needs rank 2, got %s",
              a.shape().toString().c_str());
    const int64_t r = a.size(0), c = a.size(1);
    Tensor out(Shape{c, r});
    const float *pa = a.data();
    float *po = out.data();
    for (int64_t i = 0; i < r; ++i) {
        for (int64_t j = 0; j < c; ++j)
            po[j * r + i] = pa[i * c + j];
    }
    trace::emitKernel(trace::KernelClass::Other, "transpose", 0, a.bytes(),
                      out.bytes());
    return out;
}

Tensor
permute(const Tensor &a, const std::vector<int> &order)
{
    const size_t nd = a.ndim();
    MM_ASSERT(order.size() == nd, "permute order size %zu != rank %zu",
              order.size(), nd);
    std::vector<bool> seen(nd, false);
    std::vector<int64_t> out_dims(nd);
    for (size_t i = 0; i < nd; ++i) {
        int o = order[i];
        MM_ASSERT(o >= 0 && static_cast<size_t>(o) < nd && !seen[o],
                  "invalid permute order");
        seen[static_cast<size_t>(o)] = true;
        out_dims[i] = a.shape()[static_cast<size_t>(o)];
    }
    Tensor out{Shape(out_dims)};

    // Trailing axes that keep their place (splitHeads/mergeHeads keep
    // the head dim innermost) are contiguous runs in both tensors: the
    // odometer walks only the axes before them and copies whole runs.
    size_t outer = nd;
    while (outer > 0 && order[outer - 1] == static_cast<int>(outer - 1))
        --outer;
    int64_t run = 1;
    for (size_t d = outer; d < nd; ++d)
        run *= out_dims[d];

    std::vector<int64_t> in_strides = a.shape().strides();
    // Stride in the input for each output axis.
    std::vector<int64_t> walk(outer);
    for (size_t i = 0; i < outer; ++i)
        walk[i] = in_strides[static_cast<size_t>(order[i])];

    const float *pa = a.data();
    float *po = out.data();
    const int64_t n = out.numel();
    std::vector<int64_t> idx(outer, 0);
    int64_t off = 0;
    for (int64_t i = 0; i < n; i += run) {
        for (int64_t j = 0; j < run; ++j)
            po[i + j] = pa[off + j];
        for (size_t d = outer; d-- > 0;) {
            ++idx[d];
            off += walk[d];
            if (idx[d] < out_dims[d])
                break;
            off -= walk[d] * idx[d];
            idx[d] = 0;
        }
    }
    trace::emitKernel(trace::KernelClass::Other, "permute", 0, a.bytes(),
                      out.bytes());
    return out;
}

Tensor
swapDims(const Tensor &a, int d0, int d1)
{
    const int nd = static_cast<int>(a.ndim());
    if (d0 < 0)
        d0 += nd;
    if (d1 < 0)
        d1 += nd;
    MM_ASSERT(d0 >= 0 && d0 < nd && d1 >= 0 && d1 < nd,
              "swapDims indices out of range");
    std::vector<int> order(static_cast<size_t>(nd));
    for (int i = 0; i < nd; ++i)
        order[static_cast<size_t>(i)] = i;
    std::swap(order[static_cast<size_t>(d0)], order[static_cast<size_t>(d1)]);
    return permute(a, order);
}

Tensor
concat(const std::vector<Tensor> &parts, int axis)
{
    MM_ASSERT(!parts.empty(), "concat of zero tensors");
    const Tensor &first = parts[0];
    const size_t nd = first.ndim();
    if (axis < 0)
        axis += static_cast<int>(nd);
    MM_ASSERT(axis >= 0 && static_cast<size_t>(axis) < nd,
              "concat axis out of range");

    int64_t axis_total = 0;
    uint64_t bytes_in = 0;
    for (const Tensor &t : parts) {
        MM_ASSERT(t.ndim() == nd, "concat rank mismatch");
        for (size_t i = 0; i < nd; ++i) {
            if (static_cast<int>(i) != axis) {
                MM_ASSERT(t.shape()[i] == first.shape()[i],
                          "concat shape mismatch: %s vs %s",
                          t.shape().toString().c_str(),
                          first.shape().toString().c_str());
            }
        }
        axis_total += t.shape()[static_cast<size_t>(axis)];
        bytes_in += t.bytes();
    }

    std::vector<int64_t> out_dims = first.shape().dims();
    out_dims[static_cast<size_t>(axis)] = axis_total;
    Tensor out{Shape(out_dims)};

    int64_t outer = 1;
    for (int i = 0; i < axis; ++i)
        outer *= first.shape()[static_cast<size_t>(i)];
    int64_t inner = 1;
    for (size_t i = static_cast<size_t>(axis) + 1; i < nd; ++i)
        inner *= first.shape()[i];

    float *po = out.data();
    const int64_t out_row = axis_total * inner;
    int64_t dst_off = 0;
    for (const Tensor &t : parts) {
        const int64_t t_axis = t.shape()[static_cast<size_t>(axis)];
        const int64_t t_row = t_axis * inner;
        const float *pt = t.data();
        for (int64_t o = 0; o < outer; ++o) {
            std::memcpy(po + o * out_row + dst_off, pt + o * t_row,
                        static_cast<size_t>(t_row) * sizeof(float));
        }
        dst_off += t_row;
    }
    trace::emitKernel(trace::KernelClass::Other, "concat", 0, bytes_in,
                      out.bytes());
    return out;
}

Tensor
narrow(const Tensor &a, int axis, int64_t start, int64_t len)
{
    const size_t nd = a.ndim();
    if (axis < 0)
        axis += static_cast<int>(nd);
    MM_ASSERT(axis >= 0 && static_cast<size_t>(axis) < nd,
              "narrow axis out of range");
    const int64_t extent = a.shape()[static_cast<size_t>(axis)];
    MM_ASSERT(start >= 0 && len > 0 && start + len <= extent,
              "narrow range [%lld, %lld) out of [0, %lld)",
              static_cast<long long>(start),
              static_cast<long long>(start + len),
              static_cast<long long>(extent));

    std::vector<int64_t> out_dims = a.shape().dims();
    out_dims[static_cast<size_t>(axis)] = len;
    Tensor out{Shape(out_dims)};

    int64_t outer = 1;
    for (int i = 0; i < axis; ++i)
        outer *= a.shape()[static_cast<size_t>(i)];
    int64_t inner = 1;
    for (size_t i = static_cast<size_t>(axis) + 1; i < nd; ++i)
        inner *= a.shape()[i];

    const float *pa = a.data();
    float *po = out.data();
    const int64_t in_row = extent * inner;
    const int64_t out_row = len * inner;
    for (int64_t o = 0; o < outer; ++o) {
        std::memcpy(po + o * out_row, pa + o * in_row + start * inner,
                    static_cast<size_t>(out_row) * sizeof(float));
    }
    trace::emitKernel(trace::KernelClass::Other, "narrow", 0, out.bytes(),
                      out.bytes());
    return out;
}

std::vector<Tensor>
chunk(const Tensor &a, int n, int axis)
{
    MM_ASSERT(n > 0, "chunk count must be positive");
    const size_t nd = a.ndim();
    int ax = axis < 0 ? axis + static_cast<int>(nd) : axis;
    MM_ASSERT(ax >= 0 && static_cast<size_t>(ax) < nd,
              "chunk axis out of range");
    const int64_t extent = a.shape()[static_cast<size_t>(ax)];
    MM_ASSERT(extent % n == 0, "chunk: axis extent %lld not divisible by %d",
              static_cast<long long>(extent), n);
    const int64_t step = extent / n;
    std::vector<Tensor> out;
    out.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        out.push_back(narrow(a, ax, i * step, step));
    return out;
}

Tensor
pad2d(const Tensor &a, int pad)
{
    MM_ASSERT(a.ndim() == 4, "pad2d needs NCHW, got %s",
              a.shape().toString().c_str());
    MM_ASSERT(pad >= 0, "negative padding");
    if (pad == 0)
        return a.clone();
    const int64_t n = a.size(0), c = a.size(1), h = a.size(2), w = a.size(3);
    const int64_t oh = h + 2 * pad, ow = w + 2 * pad;
    Tensor out = Tensor::zeros(Shape{n, c, oh, ow});
    const float *pa = a.data();
    float *po = out.data();
    for (int64_t i = 0; i < n * c; ++i) {
        const float *src = pa + i * h * w;
        float *dst = po + i * oh * ow + pad * ow + pad;
        for (int64_t y = 0; y < h; ++y) {
            std::memcpy(dst + y * ow, src + y * w,
                        static_cast<size_t>(w) * sizeof(float));
        }
    }
    trace::emitKernel(trace::KernelClass::Other, "pad", 0, a.bytes(),
                      out.bytes());
    return out;
}

Tensor
expandTo(const Tensor &a, const Shape &target)
{
    Shape b = broadcastShapes(a.shape(), target);
    MM_ASSERT(b == target, "cannot expand %s to %s",
              a.shape().toString().c_str(), target.toString().c_str());
    Tensor out(target);
    const size_t nd = target.ndim();
    std::vector<int64_t> sa = detail::broadcastStrides(a.shape(), target);
    const float *pa = a.data();
    float *po = out.data();
    const int64_t n = out.numel();
    std::vector<int64_t> idx(nd, 0);
    int64_t off = 0;
    for (int64_t i = 0; i < n; ++i) {
        po[i] = pa[off];
        for (size_t d = nd; d-- > 0;) {
            ++idx[d];
            off += sa[d];
            if (idx[d] < target[d])
                break;
            off -= sa[d] * idx[d];
            idx[d] = 0;
        }
    }
    trace::emitKernel(trace::KernelClass::Other, "expand", 0, a.bytes(),
                      out.bytes());
    return out;
}

Tensor
embedding(const Tensor &weight, const Tensor &ids)
{
    MM_ASSERT(weight.ndim() == 2, "embedding weight must be (V, D)");
    const int64_t vocab = weight.size(0);
    const int64_t dim = weight.size(1);
    std::vector<int64_t> out_dims = ids.shape().dims();
    out_dims.push_back(dim);
    Tensor out(Shape(std::move(out_dims)));
    const float *pw = weight.data();
    const float *pi = ids.data();
    float *po = out.data();
    const int64_t n = ids.numel();
    for (int64_t i = 0; i < n; ++i) {
        const int64_t id = static_cast<int64_t>(pi[i]);
        MM_ASSERT(id >= 0 && id < vocab, "token id %lld outside vocab %lld",
                  static_cast<long long>(id), static_cast<long long>(vocab));
        std::memcpy(po + i * dim, pw + id * dim,
                    static_cast<size_t>(dim) * sizeof(float));
    }
    trace::emitKernel(trace::KernelClass::Other, "embedding_gather", 0,
                      ids.bytes() + out.bytes(), out.bytes());
    return out;
}

Tensor
embeddingBackward(const Tensor &grad_out, const Tensor &ids, int64_t vocab)
{
    const int64_t n = ids.numel();
    MM_ASSERT(grad_out.numel() % n == 0, "embeddingBackward shape mismatch");
    const int64_t dim = grad_out.numel() / n;
    Tensor grad_w = Tensor::zeros(Shape{vocab, dim});
    const float *pg = grad_out.data();
    const float *pi = ids.data();
    float *pw = grad_w.data();
    for (int64_t i = 0; i < n; ++i) {
        const int64_t id = static_cast<int64_t>(pi[i]);
        MM_ASSERT(id >= 0 && id < vocab, "token id %lld outside vocab %lld",
                  static_cast<long long>(id), static_cast<long long>(vocab));
        const float *src = pg + i * dim;
        float *dst = pw + id * dim;
        for (int64_t d = 0; d < dim; ++d)
            dst[d] += src[d];
    }
    trace::emitKernel(trace::KernelClass::Other, "embedding_scatter",
                      static_cast<uint64_t>(n * dim),
                      grad_out.bytes() + ids.bytes(), grad_w.bytes());
    return grad_w;
}

} // namespace tensor
} // namespace mmbench
