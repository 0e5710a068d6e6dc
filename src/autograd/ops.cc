#include "autograd/ops.hh"

#include <cmath>

#include "core/logging.hh"

namespace mmbench {
namespace autograd {

namespace ts = mmbench::tensor;

Var
add(const Var &a, const Var &b)
{
    Tensor out = ts::add(a.value(), b.value());
    return Var::makeNode(std::move(out), {a, b}, [a, b](const Tensor &g) {
        Var am = a, bm = b;
        if (a.needsGrad())
            am.accumulateGrad(reduceGradTo(g, a.value().shape()));
        if (b.needsGrad())
            bm.accumulateGrad(reduceGradTo(g, b.value().shape()));
    });
}

Var
sub(const Var &a, const Var &b)
{
    Tensor out = ts::sub(a.value(), b.value());
    return Var::makeNode(std::move(out), {a, b}, [a, b](const Tensor &g) {
        Var am = a, bm = b;
        if (a.needsGrad())
            am.accumulateGrad(reduceGradTo(g, a.value().shape()));
        if (b.needsGrad())
            bm.accumulateGrad(reduceGradTo(ts::neg(g), b.value().shape()));
    });
}

Var
mul(const Var &a, const Var &b)
{
    Tensor out = ts::mul(a.value(), b.value());
    return Var::makeNode(std::move(out), {a, b}, [a, b](const Tensor &g) {
        Var am = a, bm = b;
        if (a.needsGrad()) {
            am.accumulateGrad(
                reduceGradTo(ts::mul(g, b.value()), a.value().shape()));
        }
        if (b.needsGrad()) {
            bm.accumulateGrad(
                reduceGradTo(ts::mul(g, a.value()), b.value().shape()));
        }
    });
}

Var
addScalar(const Var &a, float s)
{
    Tensor out = ts::addScalar(a.value(), s);
    return Var::makeNode(std::move(out), {a}, [a](const Tensor &g) {
        Var am = a;
        am.accumulateGrad(g);
    });
}

Var
mulScalar(const Var &a, float s)
{
    Tensor out = ts::mulScalar(a.value(), s);
    return Var::makeNode(std::move(out), {a}, [a, s](const Tensor &g) {
        Var am = a;
        am.accumulateGrad(ts::mulScalar(g, s));
    });
}

Var
neg(const Var &a)
{
    return mulScalar(a, -1.0f);
}

Var
relu(const Var &a)
{
    Tensor out = ts::reluF(a.value());
    return Var::makeNode(std::move(out), {a}, [a](const Tensor &g) {
        Var am = a;
        am.accumulateGrad(ts::mul(g, ts::gtZeroMask(a.value())));
    });
}

Var
sigmoid(const Var &a)
{
    Tensor out = ts::sigmoidF(a.value());
    Tensor saved = out; // shares storage; cheap
    return Var::makeNode(std::move(out), {a}, [a, saved](const Tensor &g) {
        // dy/dx = y * (1 - y)
        Tensor one_minus = ts::mulScalar(ts::addScalar(saved, -1.0f), -1.0f);
        Var am = a;
        am.accumulateGrad(ts::mul(g, ts::mul(saved, one_minus)));
    });
}

Var
tanhV(const Var &a)
{
    Tensor out = ts::tanhF(a.value());
    Tensor saved = out;
    return Var::makeNode(std::move(out), {a}, [a, saved](const Tensor &g) {
        // dy/dx = 1 - y^2
        Tensor d = ts::mulScalar(ts::addScalar(ts::squareF(saved), -1.0f),
                                 -1.0f);
        Var am = a;
        am.accumulateGrad(ts::mul(g, d));
    });
}

Var
gelu(const Var &a)
{
    Tensor out = ts::geluF(a.value());
    return Var::makeNode(std::move(out), {a}, [a](const Tensor &g) {
        // Derivative of the tanh-approximated GELU, computed pointwise.
        const Tensor &x = a.value();
        Tensor d(x.shape());
        const float *px = x.data();
        float *pd = d.data();
        const float c = 0.7978845608f;
        for (int64_t i = 0; i < x.numel(); ++i) {
            const float v = px[i];
            const float inner = c * (v + 0.044715f * v * v * v);
            const float t = std::tanh(inner);
            const float sech2 = 1.0f - t * t;
            pd[i] = 0.5f * (1.0f + t) +
                    0.5f * v * sech2 * c * (1.0f + 3.0f * 0.044715f * v * v);
        }
        Var am = a;
        am.accumulateGrad(ts::mul(g, d));
    });
}

namespace {

/** Sum leading batch axes of grad until it matches target's numel. */
Tensor
foldBatchGrad(Tensor grad, const Shape &target)
{
    while (grad.numel() > target.numel())
        grad = ts::sumAxis(grad, 0);
    return grad.reshape(target);
}

} // namespace

Var
matmul(const Var &a, const Var &b)
{
    Tensor out = ts::matmul(a.value(), b.value());
    return Var::makeNode(std::move(out), {a, b}, [a, b](const Tensor &g) {
        // The backward GEMMs read the transposed operand through
        // strides (matmulNT/TN) instead of materializing a transpose.
        if (a.needsGrad()) {
            Tensor ga = ts::matmulNT(g, b.value());
            Var am = a;
            am.accumulateGrad(foldBatchGrad(std::move(ga),
                                            a.value().shape()));
        }
        if (b.needsGrad()) {
            Tensor gb = ts::matmulTN(a.value(), g);
            Var bm = b;
            bm.accumulateGrad(foldBatchGrad(std::move(gb),
                                            b.value().shape()));
        }
    });
}

Var
matmulNT(const Var &a, const Var &b)
{
    // a @ b^T with b stored (..., N, K): the attention-score shape.
    Tensor out = ts::matmulNT(a.value(), b.value());
    return Var::makeNode(std::move(out), {a, b}, [a, b](const Tensor &g) {
        if (a.needsGrad()) {
            Tensor ga = ts::matmul(g, b.value());
            Var am = a;
            am.accumulateGrad(foldBatchGrad(std::move(ga),
                                            a.value().shape()));
        }
        if (b.needsGrad()) {
            Tensor gb = ts::matmulTN(g, a.value());
            Var bm = b;
            bm.accumulateGrad(foldBatchGrad(std::move(gb),
                                            b.value().shape()));
        }
    });
}

Var
linear(const Var &x, const Var &w, const Var &b)
{
    // x: (..., in), w: (in, out), b: (out). Weight is stored
    // pre-transposed so the forward pass is a single GEMM launch.
    Var y = matmul(x, w);
    if (b.defined())
        y = add(y, b);
    return y;
}

Var
outerBatch(const Var &a, const Var &b)
{
    Tensor out = ts::outerBatch(a.value(), b.value());
    return Var::makeNode(std::move(out), {a, b}, [a, b](const Tensor &g) {
        // g: (B, m, n); ga[B,m] = sum_n g * b; gb[B,n] = sum_m g * a.
        const int64_t batch = g.size(0), m = g.size(1), n = g.size(2);
        if (a.needsGrad()) {
            Tensor ga(Shape{batch, m});
            const float *pg = g.data();
            const float *pb = b.value().data();
            float *po = ga.data();
            for (int64_t bi = 0; bi < batch; ++bi) {
                for (int64_t i = 0; i < m; ++i) {
                    float acc = 0.0f;
                    for (int64_t j = 0; j < n; ++j)
                        acc += pg[(bi * m + i) * n + j] * pb[bi * n + j];
                    po[bi * m + i] = acc;
                }
            }
            Var am = a;
            am.accumulateGrad(ga);
        }
        if (b.needsGrad()) {
            Tensor gb(Shape{batch, n});
            const float *pg = g.data();
            const float *pa = a.value().data();
            float *po = gb.data();
            for (int64_t bi = 0; bi < batch; ++bi) {
                for (int64_t j = 0; j < n; ++j) {
                    float acc = 0.0f;
                    for (int64_t i = 0; i < m; ++i)
                        acc += pg[(bi * m + i) * n + j] * pa[bi * m + i];
                    po[bi * n + j] = acc;
                }
            }
            Var bm = b;
            bm.accumulateGrad(gb);
        }
    });
}

Var
softmaxLast(const Var &a)
{
    Tensor out = ts::softmaxLast(a.value());
    Tensor saved = out;
    return Var::makeNode(std::move(out), {a}, [a, saved](const Tensor &g) {
        // dx = (g - sum(g*y, last, keepdim)) * y
        Tensor gy = ts::mul(g, saved);
        Tensor s = ts::sumAxis(gy, -1, true);
        Var am = a;
        am.accumulateGrad(ts::mul(ts::sub(g, s), saved));
    });
}

Var
logSoftmaxLast(const Var &a)
{
    Tensor out = ts::logSoftmaxLast(a.value());
    Tensor saved = out;
    return Var::makeNode(std::move(out), {a}, [a, saved](const Tensor &g) {
        // dx = g - softmax(x) * sum(g, last, keepdim)
        Tensor sm = ts::expF(saved);
        Tensor s = ts::sumAxis(g, -1, true);
        Var am = a;
        am.accumulateGrad(ts::sub(g, ts::mul(sm, s)));
    });
}

Var
reshape(const Var &a, const Shape &shape)
{
    Tensor out = a.value().reshape(shape);
    return Var::makeNode(std::move(out), {a}, [a](const Tensor &g) {
        Var am = a;
        am.accumulateGrad(g.reshape(a.value().shape()));
    });
}

Var
concat(const std::vector<Var> &parts, int axis)
{
    std::vector<Tensor> values;
    values.reserve(parts.size());
    for (const Var &p : parts)
        values.push_back(p.value());
    Tensor out = ts::concat(values, axis);
    int ax = axis < 0 ? axis + static_cast<int>(out.ndim()) : axis;
    return Var::makeNode(std::move(out), parts,
                         [parts, ax](const Tensor &g) {
        int64_t off = 0;
        for (const Var &p : parts) {
            const int64_t extent =
                p.value().shape()[static_cast<size_t>(ax)];
            if (p.needsGrad()) {
                Var pm = p;
                pm.accumulateGrad(ts::narrow(g, ax, off, extent));
            }
            off += extent;
        }
    });
}

Var
narrow(const Var &a, int axis, int64_t start, int64_t len)
{
    Tensor out = ts::narrow(a.value(), axis, start, len);
    int ax = axis < 0 ? axis + static_cast<int>(a.value().ndim()) : axis;
    return Var::makeNode(std::move(out), {a},
                         [a, ax, start](const Tensor &g) {
        // Scatter the slice gradient back into a zero tensor.
        Tensor gx = Tensor::zeros(a.value().shape());
        const Shape &in = a.value().shape();
        int64_t outer = 1, inner = 1;
        for (int i = 0; i < ax; ++i)
            outer *= in[static_cast<size_t>(i)];
        for (size_t i = static_cast<size_t>(ax) + 1; i < in.ndim(); ++i)
            inner *= in[i];
        const int64_t extent = in[static_cast<size_t>(ax)];
        const int64_t len_g = g.shape()[static_cast<size_t>(ax)];
        const float *pg = g.data();
        float *px = gx.data();
        for (int64_t o = 0; o < outer; ++o) {
            for (int64_t l = 0; l < len_g; ++l) {
                const float *src = pg + (o * len_g + l) * inner;
                float *dst = px + (o * extent + start + l) * inner;
                for (int64_t i = 0; i < inner; ++i)
                    dst[i] += src[i];
            }
        }
        Var am = a;
        am.accumulateGrad(gx);
    });
}

Var
transpose2d(const Var &a)
{
    Tensor out = ts::transpose2d(a.value());
    return Var::makeNode(std::move(out), {a}, [a](const Tensor &g) {
        Var am = a;
        am.accumulateGrad(ts::transpose2d(g));
    });
}

Var
swapDims(const Var &a, int d0, int d1)
{
    Tensor out = ts::swapDims(a.value(), d0, d1);
    return Var::makeNode(std::move(out), {a}, [a, d0, d1](const Tensor &g) {
        Var am = a;
        am.accumulateGrad(ts::swapDims(g, d0, d1));
    });
}

Var
sumAll(const Var &a)
{
    Tensor out = ts::sumAll(a.value());
    return Var::makeNode(std::move(out), {a}, [a](const Tensor &g) {
        Var am = a;
        am.accumulateGrad(ts::expandTo(g, a.value().shape()));
    });
}

Var
meanAll(const Var &a)
{
    const float inv = 1.0f / static_cast<float>(a.value().numel());
    return mulScalar(sumAll(a), inv);
}

Var
sumAxis(const Var &a, int axis)
{
    Tensor out = ts::sumAxis(a.value(), axis, false);
    int nd = static_cast<int>(a.value().ndim());
    int ax = axis < 0 ? axis + nd : axis;
    return Var::makeNode(std::move(out), {a}, [a, ax](const Tensor &g) {
        // Re-insert the reduced axis as extent 1 and broadcast back.
        std::vector<int64_t> dims = a.value().shape().dims();
        dims[static_cast<size_t>(ax)] = 1;
        Tensor gk = g.reshape(Shape(dims));
        Var am = a;
        am.accumulateGrad(ts::expandTo(gk, a.value().shape()));
    });
}

Var
meanAxis(const Var &a, int axis)
{
    int nd = static_cast<int>(a.value().ndim());
    int ax = axis < 0 ? axis + nd : axis;
    const float inv = 1.0f /
        static_cast<float>(a.value().shape()[static_cast<size_t>(ax)]);
    return mulScalar(sumAxis(a, axis), inv);
}

Var
conv2d(const Var &x, const Var &w, const Var &b, int stride, int pad)
{
    Tensor out = ts::conv2d(x.value(), w.value(),
                            b.defined() ? b.value() : Tensor(), stride, pad);
    std::vector<Var> parents = {x, w};
    if (b.defined())
        parents.push_back(b);
    return Var::makeNode(std::move(out), std::move(parents),
                         [x, w, b, stride, pad](const Tensor &g) {
        if (x.needsGrad()) {
            Var xm = x;
            xm.accumulateGrad(ts::conv2dGradInput(g, w.value(),
                                                  x.value().shape(), stride,
                                                  pad));
        }
        if (w.needsGrad()) {
            Var wm = w;
            wm.accumulateGrad(ts::conv2dGradWeight(g, x.value(),
                                                   w.value().shape(),
                                                   stride, pad));
        }
        if (b.defined() && b.needsGrad()) {
            // Sum over N, H, W.
            Tensor gb = ts::sumAxis(ts::sumAxis(ts::sumAxis(g, -1), -1), 0);
            Var bm = b;
            bm.accumulateGrad(gb);
        }
    });
}

Var
maxpool2d(const Var &x, int kernel, int stride)
{
    // Argmax indices only feed the backward closure: skip them (and
    // their allocation) when this node records no graph.
    if (!GradMode::enabled() || !x.needsGrad())
        return Var(ts::maxpool2d(x.value(), kernel, stride), false);
    Tensor indices;
    Tensor out = ts::maxpool2d(x.value(), kernel, stride, &indices);
    return Var::makeNode(std::move(out), {x},
                         [x, indices](const Tensor &g) {
        Var xm = x;
        xm.accumulateGrad(ts::maxpool2dBackward(g, indices,
                                                x.value().shape()));
    });
}

Var
avgpool2d(const Var &x, int kernel, int stride)
{
    Tensor out = ts::avgpool2d(x.value(), kernel, stride);
    return Var::makeNode(std::move(out), {x},
                         [x, kernel, stride](const Tensor &g) {
        Var xm = x;
        xm.accumulateGrad(ts::avgpool2dBackward(g, x.value().shape(),
                                                kernel, stride));
    });
}

Var
globalAvgPool(const Var &x)
{
    Tensor out = ts::globalAvgPool(x.value());
    return Var::makeNode(std::move(out), {x}, [x](const Tensor &g) {
        const Shape &in = x.value().shape();
        const int64_t spatial = in[2] * in[3];
        const float inv = 1.0f / static_cast<float>(spatial);
        Tensor gx(in);
        const float *pg = g.data();
        float *px = gx.data();
        const int64_t planes = in[0] * in[1];
        for (int64_t p = 0; p < planes; ++p) {
            const float v = pg[p] * inv;
            float *dst = px + p * spatial;
            for (int64_t i = 0; i < spatial; ++i)
                dst[i] = v;
        }
        Var xm = x;
        xm.accumulateGrad(gx);
    });
}

Var
upsampleNearest2x(const Var &x)
{
    Tensor out = ts::upsampleNearest2x(x.value());
    return Var::makeNode(std::move(out), {x}, [x](const Tensor &g) {
        Var xm = x;
        xm.accumulateGrad(ts::upsampleNearest2xBackward(g));
    });
}

Var
batchnorm2d(const Var &x, const Var &gamma, const Var &beta,
            Tensor &running_mean, Tensor &running_var, bool training,
            float momentum, float eps)
{
    Tensor saved_mean, saved_invstd;
    Tensor out = ts::batchnorm2d(x.value(), gamma.value(), beta.value(),
                                 running_mean, running_var, training,
                                 momentum, eps, &saved_mean, &saved_invstd);
    return Var::makeNode(std::move(out), {x, gamma, beta},
                         [x, gamma, beta, saved_mean,
                          saved_invstd](const Tensor &g) {
        Tensor ggamma = Tensor::zeros(gamma.value().shape());
        Tensor gbeta = Tensor::zeros(beta.value().shape());
        Tensor gx = ts::batchnorm2dBackward(g, x.value(), gamma.value(),
                                            saved_mean, saved_invstd,
                                            ggamma, gbeta);
        if (x.needsGrad()) {
            Var xm = x;
            xm.accumulateGrad(gx);
        }
        if (gamma.needsGrad()) {
            Var gm = gamma;
            gm.accumulateGrad(ggamma);
        }
        if (beta.needsGrad()) {
            Var bm = beta;
            bm.accumulateGrad(gbeta);
        }
    });
}

Var
layernorm(const Var &x, const Var &gamma, const Var &beta, float eps)
{
    Tensor saved_mean, saved_invstd;
    Tensor out = ts::layernorm(x.value(), gamma.value(), beta.value(), eps,
                               &saved_mean, &saved_invstd);
    return Var::makeNode(std::move(out), {x, gamma, beta},
                         [x, gamma, beta, saved_mean,
                          saved_invstd](const Tensor &g) {
        Tensor ggamma = Tensor::zeros(gamma.value().shape());
        Tensor gbeta = Tensor::zeros(beta.value().shape());
        Tensor gx = ts::layernormBackward(g, x.value(), gamma.value(),
                                          saved_mean, saved_invstd, ggamma,
                                          gbeta);
        if (x.needsGrad()) {
            Var xm = x;
            xm.accumulateGrad(gx);
        }
        if (gamma.needsGrad()) {
            Var gm = gamma;
            gm.accumulateGrad(ggamma);
        }
        if (beta.needsGrad()) {
            Var bm = beta;
            bm.accumulateGrad(gbeta);
        }
    });
}

Var
embedding(const Var &weight, const Tensor &ids)
{
    Tensor out = ts::embedding(weight.value(), ids);
    const int64_t vocab = weight.value().size(0);
    return Var::makeNode(std::move(out), {weight},
                         [weight, ids, vocab](const Tensor &g) {
        Var wm = weight;
        wm.accumulateGrad(ts::embeddingBackward(g, ids, vocab));
    });
}

Var
dropout(const Var &x, float p, bool training, Rng &rng)
{
    if (!training || p <= 0.0f)
        return x;
    Tensor mask = ts::dropoutMask(x.value().shape(), p, rng);
    Tensor out = ts::mul(x.value(), mask);
    return Var::makeNode(std::move(out), {x}, [x, mask](const Tensor &g) {
        Var xm = x;
        xm.accumulateGrad(ts::mul(g, mask));
    });
}

} // namespace autograd
} // namespace mmbench
