/**
 * @file
 * Convolution and pooling operators (NCHW layout).
 *
 * Large convolutions run as an implicit GEMM, the scheme cuDNN's
 * IMPLICIT_GEMM algorithm uses: the shared blocked GEMM's B-pack loop
 * reads each image through its conv geometry (detail::ConvView), so
 * no column matrix is ever written, and the packed panels hold the
 * same floats an explicit im2col would have produced. Tiny shapes
 * keep the direct loop, which also serves as the numerical reference
 * (conv2dReference). The i8 path alone still writes an explicit int8
 * column matrix, which its i32 kernel reads. Either path is reported
 * as one Conv-class kernel launch, so the trace the simulator
 * consumes is unchanged.
 *
 * 2x2/stride-2 max and average pooling without argmax indices take a
 * branch-free loop over row pairs that visits the taps in the generic
 * loop's order, so its output is bitwise the generic loop's.
 */

#include "tensor/ops.hh"

#include <algorithm>
#include <limits>
#include <vector>

#include "core/logging.hh"
#include "core/parallel.hh"
#include "tensor/ops_common.hh"
#include "trace/sink.hh"

namespace mmbench {
namespace tensor {

namespace {

/** Output spatial extent for a conv/pool window sweep. */
int64_t
outExtent(int64_t in, int kernel, int stride, int pad)
{
    const int64_t out = (in + 2 * pad - kernel) / stride + 1;
    MM_ASSERT(out > 0,
              "window (k=%d, s=%d, p=%d) does not fit input extent %lld",
              kernel, stride, pad, static_cast<long long>(in));
    return out;
}

/** Below this many MACs per image the direct loop beats the GEMM. */
constexpr int64_t kDirectConvMacLimit = 1 << 14;

/**
 * Streaming pooling kernels hand each parallel chunk at least this
 * many input elements, so a small pool runs inline rather than paying
 * a pool dispatch that costs more than the pooling itself.
 */
constexpr int64_t kPoolChunkElems = 1 << 18;

/** parallelFor grain, in planes of `plane_elems` inputs each. */
int64_t
poolGrain(int64_t plane_elems)
{
    return std::max<int64_t>(1, kPoolChunkElems / plane_elems);
}

/** One max-pool tap: the generic loop's `>` rule as a select. */
inline float
maxTap(float best, float v)
{
    return v > best ? v : best;
}

/**
 * Direct-loop convolution of one image: out plane (oc, oh*ow),
 * input (c, h, wd). The tiny-shape path and the reference kernel.
 */
void
convDirectImage(const float *xb, const float *pw, const float *pb,
                float *ob, int64_t c, int64_t h, int64_t wd, int64_t oc,
                int kh, int kw, int64_t oh, int64_t ow, int stride,
                int pad, ActKind act = ActKind::None)
{
    dispatchAct(act, [&](auto actc) {
        constexpr ActKind kAct = decltype(actc)::value;
        for (int64_t o = 0; o < oc; ++o) {
            const float *wb = pw + o * c * kh * kw;
            const float bias = pb ? pb[o] : 0.0f;
            float *oplane = ob + o * oh * ow;
            for (int64_t y = 0; y < oh; ++y) {
                for (int64_t xo = 0; xo < ow; ++xo) {
                    float acc = bias;
                    const int64_t iy0 = y * stride - pad;
                    const int64_t ix0 = xo * stride - pad;
                    for (int64_t ci = 0; ci < c; ++ci) {
                        const float *xplane = xb + ci * h * wd;
                        const float *wplane = wb + ci * kh * kw;
                        for (int ky = 0; ky < kh; ++ky) {
                            const int64_t iy = iy0 + ky;
                            if (iy < 0 || iy >= h)
                                continue;
                            for (int kx = 0; kx < kw; ++kx) {
                                const int64_t ix = ix0 + kx;
                                if (ix < 0 || ix >= wd)
                                    continue;
                                acc += xplane[iy * wd + ix] *
                                       wplane[ky * kw + kx];
                            }
                        }
                    }
                    oplane[y * ow + xo] = applyAct(kAct, acc);
                }
            }
        }
    });
}

/**
 * Bias-filled output plus one blocked GEMM for one image: out (oc x
 * oh*ow) = bias + w (oc x kdim) * cols, where `cols` is the image read
 * through its ConvView (or, for a 1x1/stride-1/unpadded conv, the
 * image itself as a plain matrix). A fused activation rides the GEMM
 * epilogue, reading the accumulated element (bias included) exactly
 * as a separate pass would.
 */
void
convGemm(const detail::DtOperand &w, const detail::DtOperand &cols,
         const float *pb, float *ob, int64_t oc, int64_t kdim, int64_t ohw,
         ActKind act)
{
    if (pb) {
        core::parallelFor(0, oc, 8, [&](int64_t o0, int64_t o1) {
            for (int64_t o = o0; o < o1; ++o)
                std::fill(ob + o * ohw, ob + (o + 1) * ohw, pb[o]);
        });
    } else {
        std::fill(ob, ob + oc * ohw, 0.0f);
    }
    if (act == ActKind::None) {
        detail::gemmBlockedDt(w, cols, ob, oc, kdim, ohw);
    } else {
        const detail::Epilogue epi{nullptr, act};
        detail::gemmBlockedDt(w, cols, ob, oc, kdim, ohw, &epi);
    }
}

/**
 * The GEMM B operand for one image: the image itself when the conv is
 * 1x1/stride-1/unpadded (its column matrix is the image), otherwise
 * the image read through `view`.
 */
detail::DtOperand
imageCols(const void *xb, DType dt, const detail::ConvView &view)
{
    if (view.kh == 1 && view.kw == 1 && view.stride == 1 && view.pad == 0)
        return detail::DtOperand{xb, view.oh * view.ow, 1, dt, 1.0f};
    return detail::DtOperand{xb, 0, 0, dt, 1.0f, &view};
}

/**
 * Run image(ni) for every image: spread over the pool when there are
 * at least as many images as threads (each image's kernels then run
 * serially inside its worker), else one after another so each image
 * parallelizes inside instead.
 */
template <typename Fn>
void
forEachImage(int64_t n, const Fn &image)
{
    if (n >= core::numThreads()) {
        core::parallelFor(0, n, 1, [&](int64_t n0, int64_t n1) {
            for (int64_t ni = n0; ni < n1; ++ni)
                image(ni);
        });
    } else {
        for (int64_t ni = 0; ni < n; ++ni)
            image(ni);
    }
}

/**
 * Lower one i8 image to its explicit column matrix (the i32 kernel
 * reads columns): colq[(ci*kh+ky)*kw+kx][y*ow+xo] =
 * x[ci][y*stride-pad+ky][xo*stride-pad+kx], 0 outside the input.
 */
void
im2colI8(const int8_t *xb, int8_t *col, int64_t c, int64_t h, int64_t wd,
         int kh, int kw, int64_t oh, int64_t ow, int stride, int pad)
{
    core::parallelFor(0, c * kh * kw, 4, [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
            const int64_t ci = r / (kh * kw);
            const int ky = static_cast<int>((r / kw) % kh);
            const int kx = static_cast<int>(r % kw);
            const int8_t *xplane = xb + ci * h * wd;
            int8_t *crow = col + r * oh * ow;
            for (int64_t y = 0; y < oh; ++y) {
                const int64_t iy = y * stride - pad + ky;
                int8_t *cdst = crow + y * ow;
                if (iy < 0 || iy >= h) {
                    std::fill(cdst, cdst + ow, static_cast<int8_t>(0));
                    continue;
                }
                const int8_t *xrow = xplane + iy * wd;
                const int64_t ix0 = -pad + kx;
                if (stride == 1 && ix0 >= 0 && ix0 + ow <= wd) {
                    std::copy(xrow + ix0, xrow + ix0 + ow, cdst);
                    continue;
                }
                for (int64_t xo = 0; xo < ow; ++xo) {
                    const int64_t ix = xo * stride + ix0;
                    cdst[xo] = (ix < 0 || ix >= wd) ? static_cast<int8_t>(0)
                                                    : xrow[ix];
                }
            }
        }
    });
}

/** Grow-only per-thread i8 column buffer (one image's columns). */
int8_t *
i8ColBuffer(int64_t elems)
{
    thread_local std::vector<int8_t> buf;
    if (buf.size() < static_cast<size_t>(elems))
        buf.resize(static_cast<size_t>(elems));
    return buf.data();
}

/**
 * i8 conv of one image in i32: out[o][j] = act(dequant * sum_k
 * wq[o][k] * colq[k][j] + bias[o]). Parallel over output channels
 * (disjoint rows; deterministic), nesting-safe like the GEMM.
 */
void
convI8Image(const int8_t *colq, const int8_t *wq, const float *pb,
            float *ob, int64_t oc, int64_t kdim, int64_t ohw,
            float dequant, ActKind act)
{
    dispatchAct(act, [&](auto actc) {
        constexpr ActKind kAct = decltype(actc)::value;
        core::parallelFor(0, oc, 1, [&](int64_t o0, int64_t o1) {
            std::vector<int32_t> acc(static_cast<size_t>(ohw));
            for (int64_t o = o0; o < o1; ++o) {
                std::fill(acc.begin(), acc.end(), 0);
                const int8_t *wrow = wq + o * kdim;
                for (int64_t kk = 0; kk < kdim; ++kk) {
                    const int32_t wv = wrow[kk];
                    const int8_t *crow = colq + kk * ohw;
                    for (int64_t j = 0; j < ohw; ++j)
                        acc[j] += wv * static_cast<int32_t>(crow[j]);
                }
                const float bias = pb ? pb[o] : 0.0f;
                float *orow = ob + o * ohw;
                for (int64_t j = 0; j < ohw; ++j)
                    orow[j] = applyAct(
                        kAct,
                        static_cast<float>(acc[j]) * dequant + bias);
            }
        });
    });
}

/** Static Conv event names for the reduced-precision entry points. */
const char *
convDtName(DType dt, bool cast_input)
{
    switch (dt) {
      case DType::BF16: return cast_input ? "conv_bf16" : "conv_bf16_w";
      case DType::F16:  return cast_input ? "conv_f16" : "conv_f16_w";
      case DType::I8:   return "conv_i8";
      case DType::F32:  break;
    }
    return "conv2d";
}

/** Canonical fused conv event names (static strings; see linearAct). */
const char *
fusedConvName(bool bias, ActKind act)
{
    static const char *with_bias[] = {
        "conv2d", "fused:conv_bias_relu", "fused:conv_bias_sigmoid",
        "fused:conv_bias_tanh", "fused:conv_bias_gelu",
    };
    static const char *no_bias[] = {
        "conv2d", "fused:conv_relu", "fused:conv_sigmoid",
        "fused:conv_tanh", "fused:conv_gelu",
    };
    const int i = static_cast<int>(act);
    return bias ? with_bias[i] : no_bias[i];
}

/**
 * Shared body of conv2d / conv2dAct. The production heuristic
 * (ConvAlgo::Auto) runs the direct loop below kDirectConvMacLimit MACs
 * per image and the implicit GEMM lowering above it;
 * ConvAlgo::Im2col / ConvAlgo::Direct pin one lowering for the solver
 * registry's candidates.
 */
Tensor
conv2dImpl(const Tensor &x, const Tensor &w, const Tensor &b, int stride,
           int pad, ActKind act, ConvAlgo algo)
{
    MM_ASSERT(x.ndim() == 4 && w.ndim() == 4, "conv2d needs NCHW x OIHW");
    const int64_t n = x.size(0), c = x.size(1), h = x.size(2), wd = x.size(3);
    const int64_t oc = w.size(0), wc = w.size(1);
    const int kh = static_cast<int>(w.size(2));
    const int kw = static_cast<int>(w.size(3));
    MM_ASSERT(wc == c, "conv2d channel mismatch: input %lld, weight %lld",
              static_cast<long long>(c), static_cast<long long>(wc));
    MM_ASSERT(stride >= 1 && pad >= 0, "invalid conv2d stride/pad");
    const int64_t oh = outExtent(h, kh, stride, pad);
    const int64_t ow = outExtent(wd, kw, stride, pad);

    Tensor out(Shape{n, oc, oh, ow});
    const float *px = x.data();
    const float *pw = w.data();
    const float *pb = b.defined() ? b.data() : nullptr;
    float *po = out.data();

    const int64_t macs_per_image = oc * oh * ow * c * kh * kw;
    const bool direct = algo == ConvAlgo::Direct ||
                        (algo == ConvAlgo::Auto &&
                         macs_per_image < kDirectConvMacLimit);
    if (direct) {
        core::parallelFor(0, n, 1, [&](int64_t n0, int64_t n1) {
            for (int64_t ni = n0; ni < n1; ++ni)
                convDirectImage(px + ni * c * h * wd, pw, pb,
                                po + ni * oc * oh * ow, c, h, wd, oc,
                                kh, kw, oh, ow, stride, pad, act);
        });
    } else {
        const int64_t kdim = c * kh * kw;
        const int64_t ohw = oh * ow;
        const detail::ConvView view{h, wd, kh, kw, stride, pad, oh, ow};
        const detail::DtOperand wop{pw, kdim, 1};
        forEachImage(n, [&](int64_t ni) {
            convGemm(wop, imageCols(px + ni * c * h * wd, DType::F32, view),
                     pb, po + ni * oc * ohw, oc, kdim, ohw, act);
        });
    }

    const uint64_t flops = 2ULL * static_cast<uint64_t>(n * oc * oh * ow) *
                           static_cast<uint64_t>(c * kh * kw) +
                           static_cast<uint64_t>(out.numel()) * actFlops(act);
    trace::emitKernel(trace::KernelClass::Conv,
                      fusedConvName(pb != nullptr, act), flops,
                      x.bytes() + w.bytes() +
                          (b.defined() ? b.bytes() : 0),
                      out.bytes());
    return out;
}

} // namespace

Tensor
conv2d(const Tensor &x, const Tensor &w, const Tensor &b, int stride,
       int pad)
{
    return conv2dImpl(x, w, b, stride, pad, ActKind::None, ConvAlgo::Auto);
}

Tensor
conv2dAct(const Tensor &x, const Tensor &w, const Tensor &b, int stride,
          int pad, ActKind act, ConvAlgo algo)
{
    return conv2dImpl(x, w, b, stride, pad, act, algo);
}

Tensor
conv2dActDt(const Tensor &x, const Tensor &w, const Tensor &b, int stride,
            int pad, ActKind act, bool cast_input)
{
    MM_ASSERT(x.ndim() == 4 && w.ndim() == 4,
              "conv2dActDt needs NCHW x OIHW");
    MM_ASSERT(x.dtype() == DType::F32, "conv2dActDt input must be f32");
    MM_ASSERT(w.dtype() != DType::F32,
              "conv2dActDt weight must be reduced; use conv2d for f32");
    const int64_t n = x.size(0), c = x.size(1), h = x.size(2),
                  wd = x.size(3);
    const int64_t oc = w.size(0);
    const int kh = static_cast<int>(w.size(2));
    const int kw = static_cast<int>(w.size(3));
    MM_ASSERT(w.size(1) == c, "conv2dActDt channel mismatch");
    MM_ASSERT(stride >= 1 && pad >= 0, "invalid conv2dActDt stride/pad");
    const int64_t oh = outExtent(h, kh, stride, pad);
    const int64_t ow = outExtent(wd, kw, stride, pad);
    const int64_t kdim = c * kh * kw;
    const int64_t ohw = oh * ow;
    const bool gemm_direct =
        (kh == 1 && kw == 1 && stride == 1 && pad == 0);

    const DType dt = w.dtype();
    // The i8 path needs both operands quantized (i32 accumulation);
    // bf16/f16 cast the input only when asked (the bandwidth knob).
    const bool lower_input = (dt == DType::I8) || cast_input;
    const Tensor xq = lower_input ? castTo(x, dt) : Tensor();

    Tensor out(Shape{n, oc, oh, ow});
    const float *pb = b.defined() ? b.data() : nullptr;
    float *po = out.data();

    if (dt == DType::I8) {
        const float dequant = xq.quantScale() * w.quantScale();
        const int8_t *px = xq.i8Data();
        const int8_t *pw = w.i8Data();
        forEachImage(n, [&](int64_t ni) {
            const int8_t *cols = px + ni * c * h * wd;
            if (!gemm_direct) {
                int8_t *col = i8ColBuffer(kdim * ohw);
                im2colI8(cols, col, c, h, wd, kh, kw, oh, ow, stride, pad);
                cols = col;
            }
            convI8Image(cols, pw, pb, po + ni * oc * ohw, oc, kdim, ohw,
                        dequant, act);
        });
    } else {
        // bf16/f16 weights; the image (lowered or f32) is read through
        // the same implicit column view as the f32 path.
        const detail::DtOperand wop{w.rawData(), kdim, 1, dt, 1.0f};
        const detail::ConvView view{h, wd, kh, kw, stride, pad, oh, ow};
        forEachImage(n, [&](int64_t ni) {
            const detail::DtOperand cols =
                lower_input
                    ? imageCols(xq.u16Data() + ni * c * h * wd, dt, view)
                    : imageCols(x.data() + ni * c * h * wd, DType::F32,
                                view);
            convGemm(wop, cols, pb, po + ni * oc * ohw, oc, kdim, ohw, act);
        });
    }

    const uint64_t flops = 2ULL * static_cast<uint64_t>(n * oc * oh * ow) *
                           static_cast<uint64_t>(kdim) +
                           static_cast<uint64_t>(out.numel()) *
                               actFlops(act);
    const Tensor &xin = lower_input ? xq : x;
    trace::emitKernel(trace::KernelClass::Conv, convDtName(dt, lower_input),
                      flops,
                      xin.bytes() + w.bytes() +
                          (b.defined() ? b.bytes() : 0),
                      out.bytes());
    return out;
}

Tensor
conv2dReference(const Tensor &x, const Tensor &w, const Tensor &b,
                int stride, int pad)
{
    MM_ASSERT(x.ndim() == 4 && w.ndim() == 4,
              "conv2dReference needs NCHW x OIHW");
    const int64_t n = x.size(0), c = x.size(1), h = x.size(2),
                  wd = x.size(3);
    const int64_t oc = w.size(0);
    const int kh = static_cast<int>(w.size(2));
    const int kw = static_cast<int>(w.size(3));
    const int64_t oh = outExtent(h, kh, stride, pad);
    const int64_t ow = outExtent(wd, kw, stride, pad);

    Tensor out(Shape{n, oc, oh, ow});
    const float *px = x.data();
    const float *pw = w.data();
    const float *pb = b.defined() ? b.data() : nullptr;
    float *po = out.data();
    for (int64_t ni = 0; ni < n; ++ni)
        convDirectImage(px + ni * c * h * wd, pw, pb,
                        po + ni * oc * oh * ow, c, h, wd, oc, kh, kw,
                        oh, ow, stride, pad);
    return out;
}

Tensor
conv2dGradInput(const Tensor &grad_out, const Tensor &w,
                const Shape &x_shape, int stride, int pad)
{
    const int64_t n = x_shape[0], c = x_shape[1], h = x_shape[2],
                  wd = x_shape[3];
    const int64_t oc = w.size(0);
    const int kh = static_cast<int>(w.size(2));
    const int kw = static_cast<int>(w.size(3));
    const int64_t oh = grad_out.size(2), ow = grad_out.size(3);

    Tensor gx = Tensor::zeros(x_shape);
    const float *pg = grad_out.data();
    const float *pw = w.data();
    float *px = gx.data();

    // Parallel over images: each image owns a disjoint gx slab.
    core::parallelFor(0, n, 1, [&](int64_t n0, int64_t n1) {
    for (int64_t ni = n0; ni < n1; ++ni) {
        const float *gb = pg + ni * oc * oh * ow;
        float *xb = px + ni * c * h * wd;
        for (int64_t o = 0; o < oc; ++o) {
            const float *gplane = gb + o * oh * ow;
            const float *wb = pw + o * c * kh * kw;
            for (int64_t y = 0; y < oh; ++y) {
                for (int64_t xo = 0; xo < ow; ++xo) {
                    const float g = gplane[y * ow + xo];
                    const int64_t iy0 = y * stride - pad;
                    const int64_t ix0 = xo * stride - pad;
                    for (int64_t ci = 0; ci < c; ++ci) {
                        float *xplane = xb + ci * h * wd;
                        const float *wplane = wb + ci * kh * kw;
                        for (int ky = 0; ky < kh; ++ky) {
                            const int64_t iy = iy0 + ky;
                            if (iy < 0 || iy >= h)
                                continue;
                            for (int kx = 0; kx < kw; ++kx) {
                                const int64_t ix = ix0 + kx;
                                if (ix < 0 || ix >= wd)
                                    continue;
                                xplane[iy * wd + ix] +=
                                    g * wplane[ky * kw + kx];
                            }
                        }
                    }
                }
            }
        }
    }
    });

    const uint64_t flops = 2ULL * static_cast<uint64_t>(n * oc * oh * ow) *
                           static_cast<uint64_t>(c * kh * kw);
    trace::emitKernel(trace::KernelClass::Conv, "conv2d_dgrad", flops,
                      grad_out.bytes() + w.bytes(), gx.bytes());
    return gx;
}

Tensor
conv2dGradWeight(const Tensor &grad_out, const Tensor &x,
                 const Shape &w_shape, int stride, int pad)
{
    const int64_t n = x.size(0), c = x.size(1), h = x.size(2),
                  wd = x.size(3);
    const int64_t oc = w_shape[0];
    const int kh = static_cast<int>(w_shape[2]);
    const int kw = static_cast<int>(w_shape[3]);
    const int64_t oh = grad_out.size(2), ow = grad_out.size(3);

    Tensor gw = Tensor::zeros(w_shape);
    const float *pg = grad_out.data();
    const float *px = x.data();
    float *pw = gw.data();

    // Parallel over output channels: each owns a disjoint gw slab.
    // The image loop stays innermost (and sequential) so accumulation
    // order per weight is fixed for any thread count.
    core::parallelFor(0, oc, 1, [&](int64_t o0, int64_t o1) {
    for (int64_t o = o0; o < o1; ++o) {
        float *wb = pw + o * c * kh * kw;
        for (int64_t ni = 0; ni < n; ++ni) {
            const float *gplane = pg + (ni * oc + o) * oh * ow;
            const float *xb = px + ni * c * h * wd;
            for (int64_t y = 0; y < oh; ++y) {
                for (int64_t xo = 0; xo < ow; ++xo) {
                    const float g = gplane[y * ow + xo];
                    const int64_t iy0 = y * stride - pad;
                    const int64_t ix0 = xo * stride - pad;
                    for (int64_t ci = 0; ci < c; ++ci) {
                        const float *xplane = xb + ci * h * wd;
                        float *wplane = wb + ci * kh * kw;
                        for (int ky = 0; ky < kh; ++ky) {
                            const int64_t iy = iy0 + ky;
                            if (iy < 0 || iy >= h)
                                continue;
                            for (int kx = 0; kx < kw; ++kx) {
                                const int64_t ix = ix0 + kx;
                                if (ix < 0 || ix >= wd)
                                    continue;
                                wplane[ky * kw + kx] +=
                                    g * xplane[iy * wd + ix];
                            }
                        }
                    }
                }
            }
        }
    }
    });

    const uint64_t flops = 2ULL * static_cast<uint64_t>(n * oc * oh * ow) *
                           static_cast<uint64_t>(c * kh * kw);
    trace::emitKernel(trace::KernelClass::Conv, "conv2d_wgrad", flops,
                      grad_out.bytes() + x.bytes(), gw.bytes());
    return gw;
}

Tensor
maxpool2d(const Tensor &x, int kernel, int stride, Tensor *indices)
{
    MM_ASSERT(x.ndim() == 4, "maxpool2d needs NCHW");
    const int64_t n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
    const int64_t oh = outExtent(h, kernel, stride, 0);
    const int64_t ow = outExtent(w, kernel, stride, 0);

    Tensor out(Shape{n, c, oh, ow});
    if (indices)
        *indices = Tensor(Shape{n, c, oh, ow});
    const float *px = x.data();
    float *po = out.data();
    float *pi = indices ? indices->data() : nullptr;

    if (kernel == 2 && stride == 2 && !pi) {
        // Every 2x2 window lies inside the plane (oh = h/2, ow = w/2).
        core::parallelFor(0, n * c, poolGrain(h * w),
                          [&](int64_t p0, int64_t p1) {
            for (int64_t p = p0; p < p1; ++p) {
                for (int64_t y = 0; y < oh; ++y) {
                    const float *r0 = px + p * h * w + 2 * y * w;
                    const float *r1 = r0 + w;
                    float *orow = po + p * oh * ow + y * ow;
                    for (int64_t xo = 0; xo < ow; ++xo) {
                        float best = -std::numeric_limits<float>::infinity();
                        best = maxTap(best, r0[2 * xo]);
                        best = maxTap(best, r0[2 * xo + 1]);
                        best = maxTap(best, r1[2 * xo]);
                        best = maxTap(best, r1[2 * xo + 1]);
                        orow[xo] = best;
                    }
                }
            }
        });
    } else {
        core::parallelFor(0, n * c, 4, [&](int64_t p0, int64_t p1) {
        for (int64_t p = p0; p < p1; ++p) {
            const float *plane = px + p * h * w;
            float *oplane = po + p * oh * ow;
            float *iplane = pi ? pi + p * oh * ow : nullptr;
            for (int64_t y = 0; y < oh; ++y) {
                for (int64_t xo = 0; xo < ow; ++xo) {
                    float best = -std::numeric_limits<float>::infinity();
                    int64_t best_idx = 0;
                    for (int ky = 0; ky < kernel; ++ky) {
                        for (int kx = 0; kx < kernel; ++kx) {
                            const int64_t iy = y * stride + ky;
                            const int64_t ix = xo * stride + kx;
                            if (iy >= h || ix >= w)
                                continue;
                            const int64_t flat = iy * w + ix;
                            if (plane[flat] > best) {
                                best = plane[flat];
                                best_idx = flat;
                            }
                        }
                    }
                    oplane[y * ow + xo] = best;
                    if (iplane) {
                        iplane[y * ow + xo] =
                            static_cast<float>(p * h * w + best_idx);
                    }
                }
            }
        }
        });
    }
    trace::emitKernel(trace::KernelClass::Pooling, "maxpool2d",
                      static_cast<uint64_t>(n * c * oh * ow) *
                          static_cast<uint64_t>(kernel * kernel),
                      x.bytes(), out.bytes());
    return out;
}

Tensor
maxpool2dBackward(const Tensor &grad_out, const Tensor &indices,
                  const Shape &x_shape)
{
    Tensor gx = Tensor::zeros(x_shape);
    const float *pg = grad_out.data();
    const float *pi = indices.data();
    float *px = gx.data();
    const int64_t n = grad_out.numel();
    for (int64_t i = 0; i < n; ++i)
        px[static_cast<int64_t>(pi[i])] += pg[i];
    trace::emitKernel(trace::KernelClass::Pooling, "maxpool2d_backward",
                      static_cast<uint64_t>(n),
                      grad_out.bytes() + indices.bytes(), gx.bytes());
    return gx;
}

Tensor
avgpool2d(const Tensor &x, int kernel, int stride)
{
    MM_ASSERT(x.ndim() == 4, "avgpool2d needs NCHW");
    const int64_t n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
    const int64_t oh = outExtent(h, kernel, stride, 0);
    const int64_t ow = outExtent(w, kernel, stride, 0);
    const float inv = 1.0f / static_cast<float>(kernel * kernel);

    Tensor out(Shape{n, c, oh, ow});
    const float *px = x.data();
    float *po = out.data();
    if (kernel == 2 && stride == 2) {
        // The generic loop's sum order, starting from 0.0f as it does
        // (so an all -0 window still averages to +0).
        core::parallelFor(0, n * c, poolGrain(h * w),
                          [&](int64_t p0, int64_t p1) {
            for (int64_t p = p0; p < p1; ++p) {
                for (int64_t y = 0; y < oh; ++y) {
                    const float *r0 = px + p * h * w + 2 * y * w;
                    const float *r1 = r0 + w;
                    float *orow = po + p * oh * ow + y * ow;
                    for (int64_t xo = 0; xo < ow; ++xo) {
                        float acc = 0.0f;
                        acc += r0[2 * xo];
                        acc += r0[2 * xo + 1];
                        acc += r1[2 * xo];
                        acc += r1[2 * xo + 1];
                        orow[xo] = acc * inv;
                    }
                }
            }
        });
    } else {
        core::parallelFor(0, n * c, 4, [&](int64_t p0, int64_t p1) {
        for (int64_t p = p0; p < p1; ++p) {
            const float *plane = px + p * h * w;
            float *oplane = po + p * oh * ow;
            for (int64_t y = 0; y < oh; ++y) {
                for (int64_t xo = 0; xo < ow; ++xo) {
                    float acc = 0.0f;
                    for (int ky = 0; ky < kernel; ++ky) {
                        for (int kx = 0; kx < kernel; ++kx) {
                            const int64_t iy = y * stride + ky;
                            const int64_t ix = xo * stride + kx;
                            if (iy < h && ix < w)
                                acc += plane[iy * w + ix];
                        }
                    }
                    oplane[y * ow + xo] = acc * inv;
                }
            }
        }
        });
    }
    trace::emitKernel(trace::KernelClass::Pooling, "avgpool2d",
                      static_cast<uint64_t>(n * c * oh * ow) *
                          static_cast<uint64_t>(kernel * kernel),
                      x.bytes(), out.bytes());
    return out;
}

Tensor
avgpool2dBackward(const Tensor &grad_out, const Shape &x_shape, int kernel,
                  int stride)
{
    const int64_t h = x_shape[2], w = x_shape[3];
    const int64_t oh = grad_out.size(2), ow = grad_out.size(3);
    const int64_t planes = x_shape[0] * x_shape[1];
    const float inv = 1.0f / static_cast<float>(kernel * kernel);

    Tensor gx = Tensor::zeros(x_shape);
    const float *pg = grad_out.data();
    float *px = gx.data();
    for (int64_t p = 0; p < planes; ++p) {
        const float *gplane = pg + p * oh * ow;
        float *xplane = px + p * h * w;
        for (int64_t y = 0; y < oh; ++y) {
            for (int64_t xo = 0; xo < ow; ++xo) {
                const float g = gplane[y * ow + xo] * inv;
                for (int ky = 0; ky < kernel; ++ky) {
                    for (int kx = 0; kx < kernel; ++kx) {
                        const int64_t iy = y * stride + ky;
                        const int64_t ix = xo * stride + kx;
                        if (iy < h && ix < w)
                            xplane[iy * w + ix] += g;
                    }
                }
            }
        }
    }
    trace::emitKernel(trace::KernelClass::Pooling, "avgpool2d_backward",
                      static_cast<uint64_t>(grad_out.numel()) *
                          static_cast<uint64_t>(kernel * kernel),
                      grad_out.bytes(), gx.bytes());
    return gx;
}

Tensor
globalAvgPool(const Tensor &x)
{
    MM_ASSERT(x.ndim() == 4, "globalAvgPool needs NCHW");
    const int64_t n = x.size(0), c = x.size(1);
    const int64_t spatial = x.size(2) * x.size(3);
    Tensor out(Shape{n, c});
    const float *px = x.data();
    float *po = out.data();
    core::parallelFor(0, n * c, 4, [&](int64_t p0, int64_t p1) {
        for (int64_t p = p0; p < p1; ++p) {
            double acc = 0.0;
            const float *plane = px + p * spatial;
            for (int64_t i = 0; i < spatial; ++i)
                acc += plane[i];
            po[p] =
                static_cast<float>(acc / static_cast<double>(spatial));
        }
    });
    trace::emitKernel(trace::KernelClass::Pooling, "global_avgpool",
                      static_cast<uint64_t>(x.numel()), x.bytes(),
                      out.bytes());
    return out;
}

Tensor
upsampleNearest2x(const Tensor &x)
{
    MM_ASSERT(x.ndim() == 4, "upsampleNearest2x needs NCHW");
    const int64_t n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
    Tensor out(Shape{n, c, h * 2, w * 2});
    const float *px = x.data();
    float *po = out.data();
    const int64_t ow = w * 2;
    core::parallelFor(0, n * c, 4, [&](int64_t p0, int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) {
        const float *plane = px + p * h * w;
        float *oplane = po + p * h * 2 * ow;
        for (int64_t y = 0; y < h; ++y) {
            for (int64_t xo = 0; xo < w; ++xo) {
                const float v = plane[y * w + xo];
                float *dst = oplane + (y * 2) * ow + xo * 2;
                dst[0] = v;
                dst[1] = v;
                dst[ow] = v;
                dst[ow + 1] = v;
            }
        }
    }
    });
    trace::emitKernel(trace::KernelClass::Pooling, "upsample_nearest2x", 0,
                      x.bytes(), out.bytes());
    return out;
}

Tensor
upsampleNearest2xBackward(const Tensor &grad_out)
{
    MM_ASSERT(grad_out.ndim() == 4 && grad_out.size(2) % 2 == 0 &&
                  grad_out.size(3) % 2 == 0,
              "upsampleNearest2xBackward needs even NCHW spatial dims");
    const int64_t n = grad_out.size(0), c = grad_out.size(1);
    const int64_t h = grad_out.size(2) / 2, w = grad_out.size(3) / 2;
    Tensor gx(Shape{n, c, h, w});
    const float *pg = grad_out.data();
    float *px = gx.data();
    const int64_t ow = w * 2;
    for (int64_t p = 0; p < n * c; ++p) {
        const float *gplane = pg + p * h * 2 * ow;
        float *xplane = px + p * h * w;
        for (int64_t y = 0; y < h; ++y) {
            for (int64_t xo = 0; xo < w; ++xo) {
                const float *src = gplane + (y * 2) * ow + xo * 2;
                xplane[y * w + xo] =
                    src[0] + src[1] + src[ow] + src[ow + 1];
            }
        }
    }
    trace::emitKernel(trace::KernelClass::Pooling,
                      "upsample_nearest2x_backward",
                      static_cast<uint64_t>(grad_out.numel()),
                      grad_out.bytes(), gx.bytes());
    return gx;
}

} // namespace tensor
} // namespace mmbench
