/**
 * @file
 * GEMM-class operators: matrix multiplication and outer products.
 *
 * The core is a cache-blocked, panel-packed GEMM (MC/KC/NC tiling with
 * an MR x NR register micro-kernel) parallelized over row blocks via
 * the core parallel runtime. Operands are read through (row, col)
 * element strides, so the transposed variants matmulNT / matmulTN run
 * at full speed without materializing a transposed copy. A B operand
 * may instead be an image read through its conv geometry
 * (detail::ConvView): conv2d's implicit GEMM, whose B panels are
 * gathered from the image without a column matrix.
 *
 * The k-dimension is always accumulated sequentially (block by block,
 * ascending), so results are bitwise identical for any thread count.
 *
 * Note: the seed implementation skipped inner-loop work when an A
 * element was exactly 0.0f, which made GEMM cost data-dependent and
 * skewed the kernel-breakdown figures; the blocked kernel (and the
 * naive reference below) always do the full dense work, like a real
 * GEMM library would.
 */

#include "tensor/ops.hh"

#include <algorithm>
#include <vector>

#include "core/logging.hh"
#include "core/parallel.hh"
#include "tensor/ops_common.hh"
#include "trace/sink.hh"

namespace mmbench {
namespace tensor {

using detail::GemmOperand;

namespace {

/** Micro-tile extents. NR spans two 8-float vector registers. */
constexpr int64_t MR = 6;
constexpr int64_t NR = 16;
/** Cache blocking: A block MC x KC (L2), B panel KC x NC (L3/L2). */
constexpr int64_t MC = 120; // multiple of MR
constexpr int64_t KC = 256;
constexpr int64_t NC = 1024;
/**
 * Below this many multiply-adds the packing overhead outweighs the
 * micro-kernel win for unit-stride, wide-N problems; a plain i-k-j
 * loop runs instead (see useRowLoop).
 */
constexpr int64_t kSmallGemmMacLimit = 1 << 16;

/**
 * Per-dtype element loader for the pack loops and the row loop: reads
 * one stored element and widens it to float (dequantizing i8 by
 * `scale`; a plain load for f32).
 */
template <DType DT> struct ElemLoader;
template <> struct ElemLoader<DType::F32>
{
    typedef float T;
    static float load(const T *p, float) { return *p; }
};
template <> struct ElemLoader<DType::BF16>
{
    typedef uint16_t T;
    static float load(const T *p, float) { return bf16ToF32(*p); }
};
template <> struct ElemLoader<DType::F16>
{
    typedef uint16_t T;
    static float load(const T *p, float) { return f16ToF32(*p); }
};
template <> struct ElemLoader<DType::I8>
{
    typedef int8_t T;
    static float load(const T *p, float scale)
    {
        return static_cast<float>(*p) * scale;
    }
};

/** Lift a runtime DType to a compile-time constant (see dispatchAct). */
template <typename Fn>
inline void
dispatchDType(DType dt, Fn &&fn)
{
    switch (dt) {
      case DType::BF16:
        fn(std::integral_constant<DType, DType::BF16>{});
        break;
      case DType::F16:
        fn(std::integral_constant<DType, DType::F16>{});
        break;
      case DType::I8:
        fn(std::integral_constant<DType, DType::I8>{});
        break;
      case DType::F32:
        fn(std::integral_constant<DType, DType::F32>{});
        break;
    }
}

/**
 * Pack up to MR rows [i0, i0+mr) x [0, kc) of A into panel layout,
 * converting each element to f32.
 */
template <DType DT>
void
packADtT(const detail::DtOperand &a, int64_t i0, int64_t mr, int64_t p0,
         int64_t kc, float *dst)
{
    typedef ElemLoader<DT> L;
    const typename L::T *base = static_cast<const typename L::T *>(a.p);
    for (int64_t kk = 0; kk < kc; ++kk) {
        const typename L::T *col = base + (p0 + kk) * a.cs + i0 * a.rs;
        float *out = dst + kk * MR;
        int64_t i = 0;
        for (; i < mr; ++i)
            out[i] = L::load(col + i * a.rs, a.scale);
        for (; i < MR; ++i)
            out[i] = 0.0f;
    }
}

void
packADt(const detail::DtOperand &a, int64_t i0, int64_t mr, int64_t p0,
        int64_t kc, float *dst)
{
    dispatchDType(a.dt, [&](auto dtc) {
        packADtT<decltype(dtc)::value>(a, i0, mr, p0, kc, dst);
    });
}

/** Pack up to NR cols [j0, j0+nr) x [0, kc) of B, likewise. */
template <DType DT>
void
packBDtT(const detail::DtOperand &b, int64_t j0, int64_t nr, int64_t p0,
         int64_t kc, float *dst)
{
    typedef ElemLoader<DT> L;
    const typename L::T *base = static_cast<const typename L::T *>(b.p);
    for (int64_t kk = 0; kk < kc; ++kk) {
        const typename L::T *row = base + (p0 + kk) * b.rs + j0 * b.cs;
        float *out = dst + kk * NR;
        int64_t j = 0;
        for (; j < nr; ++j)
            out[j] = L::load(row + j * b.cs, b.scale);
        for (; j < NR; ++j)
            out[j] = 0.0f;
    }
}

/** o[t] = src[t] widened to f32 for t < N (restrict: vector moves). */
template <DType DT, int64_t N>
inline void
loadFixed(float *__restrict o, const typename ElemLoader<DT>::T *__restrict src,
          float scale)
{
    for (int64_t t = 0; t < N; ++t)
        o[t] = ElemLoader<DT>::load(src + t, scale);
}

/** o[t] = src[2 * t] widened to f32 for t < NR (a stride-2 panel row). */
template <DType DT>
inline void
loadStride2(float *__restrict o,
            const typename ElemLoader<DT>::T *__restrict src, float scale)
{
    for (int64_t t = 0; t < NR; ++t)
        o[t] = ElemLoader<DT>::load(src + 2 * t, scale);
}

/**
 * o[t] = src[t * s] widened to f32 for t < n <= NR. Unit stride copies
 * in two overlapping fixed-width chunks, as memcpy does, so a short
 * span costs a few vector moves and no library call.
 */
template <DType DT>
inline void
loadSpan(float *o, const typename ElemLoader<DT>::T *src, int64_t n,
         int64_t s, float scale)
{
    if (s == 2 && n == NR) {
        loadStride2<DT>(o, src, scale);
    } else if (s != 1) {
        for (int64_t t = 0; t < n; ++t)
            o[t] = ElemLoader<DT>::load(src + t * s, scale);
    } else if (n >= 8) {
        loadFixed<DT, 8>(o, src, scale);
        loadFixed<DT, 8>(o + n - 8, src + n - 8, scale);
    } else if (n >= 4) {
        loadFixed<DT, 4>(o, src, scale);
        loadFixed<DT, 4>(o + n - 4, src + n - 4, scale);
    } else {
        for (int64_t t = 0; t < n; ++t)
            o[t] = ElemLoader<DT>::load(src + t, scale);
    }
}

/** Where one run of a ConvView panel reads at one tap (ky, kx). */
struct ConvSpan
{
    int64_t off; ///< plane offset of the run's first pixel's input
    int64_t lo;  ///< pixels [lo, hi) read off + t * stride; the rest 0
    int64_t hi;
    bool whole;  ///< all NR pixels, unit stride: one unclipped copy
};

thread_local std::vector<ConvSpan> t_convSpans;

/**
 * Pack the same panel of a ConvView B straight from the image: row kk
 * is tap (ci, ky, kx), column j output pixel (oy, ox). The panel's
 * columns split into runs along one output row. Where each run reads
 * at each (ky, kx), and how much of it falls in the padding, is the
 * same for every input channel, so that table is built once per panel;
 * rows then copy channel by channel (a channel's taps read a few
 * neighbouring input rows), zero-filling the padded pixels.
 */
template <DType DT>
void
packBConvT(const detail::DtOperand &b, int64_t j0, int64_t nr, int64_t p0,
           int64_t kc, float *dst)
{
    typedef typename ElemLoader<DT>::T T;
    const detail::ConvView &v = *b.conv;
    const T *image = static_cast<const T *>(b.p);
    // Run r: panel columns [j, j + len) on output row oy from column ox.
    struct Run
    {
        int64_t j, len, oy, ox;
    };
    Run runs[NR];
    int nruns = 0;
    for (int64_t j = 0, oy = j0 / v.ow, ox = j0 % v.ow; j < nr;
         ++oy, ox = 0) {
        const int64_t len = std::min(nr - j, v.ow - ox);
        runs[nruns++] = Run{j, len, oy, ox};
        j += len;
    }

    // ceil(a / s) for a >= 0, without a division at stride 1.
    const int64_t s = v.stride;
    const auto ceilDiv = [s](int64_t a) {
        return s == 1 ? a : (a + s - 1) / s;
    };
    const int64_t taps = static_cast<int64_t>(v.kh) * v.kw;
    if (t_convSpans.size() < static_cast<size_t>(taps * nruns))
        t_convSpans.resize(static_cast<size_t>(taps * nruns));
    ConvSpan *spans = t_convSpans.data();
    for (int64_t tap = 0, ky = 0, kx = 0; tap < taps; ++tap) {
        for (int r = 0; r < nruns; ++r) {
            const int64_t iy = runs[r].oy * s - v.pad + ky;
            const int64_t ix = runs[r].ox * s - v.pad + kx;
            const int64_t len = runs[r].len;
            ConvSpan &sp = spans[tap * nruns + r];
            sp.off = iy * v.w + ix;
            sp.lo = std::min(len, ix >= 0 ? 0 : ceilDiv(-ix));
            sp.hi = iy < 0 || iy >= v.h || ix >= v.w
                        ? sp.lo
                        : std::max(sp.lo, std::min(len, ceilDiv(v.w - ix)));
            sp.whole = s == 1 && sp.lo == 0 && sp.hi == NR;
        }
        if (++kx == v.kw) {
            kx = 0;
            ++ky;
        }
    }

    const int64_t plane = v.h * v.w;
    int64_t ci = p0 / taps;
    int64_t tap = p0 % taps;
    for (int64_t kk = 0; kk < kc; ++kk) {
        const T *src = image + ci * plane;
        const ConvSpan *row = spans + tap * nruns;
        float *out = dst + kk * NR;
        if (row->whole) {
            loadFixed<DT, NR>(out, src + row->off, b.scale);
        } else {
            std::fill(out, out + NR, 0.0f);
            for (int r = 0; r < nruns; ++r) {
                if (row[r].hi > row[r].lo)
                    loadSpan<DT>(out + runs[r].j + row[r].lo,
                                 src + (row[r].off + row[r].lo * s),
                                 row[r].hi - row[r].lo, s, b.scale);
            }
        }
        if (++tap == taps) {
            tap = 0;
            ++ci;
        }
    }
}

void
packBDt(const detail::DtOperand &b, int64_t j0, int64_t nr, int64_t p0,
        int64_t kc, float *dst)
{
    dispatchDType(b.dt, [&](auto dtc) {
        if (b.conv != nullptr)
            packBConvT<decltype(dtc)::value>(b, j0, nr, p0, kc, dst);
        else
            packBDtT<decltype(dtc)::value>(b, j0, nr, p0, kc, dst);
    });
}

#if defined(__GNUC__) || defined(__clang__)

/** 8-lane float vector with relaxed alignment (unaligned loads ok). */
typedef float v8sf __attribute__((vector_size(32), aligned(4)));

static inline v8sf
splat(float x)
{
    return (v8sf){x, x, x, x, x, x, x, x};
}

/**
 * C[0..mr, 0..nr) += Apanel * Bpanel over kc steps. The MR x NR tile
 * lives in 12 vector registers (6 rows x two 8-float halves); edge
 * tiles compute the full padded tile and store only the valid region.
 */
void
microKernel(const float *ap, const float *bp, int64_t kc, float *c,
            int64_t ldc, int64_t mr, int64_t nr)
{
    v8sf acc0[MR], acc1[MR];
    for (int64_t i = 0; i < MR; ++i) {
        acc0[i] = splat(0.0f);
        acc1[i] = splat(0.0f);
    }
    for (int64_t kk = 0; kk < kc; ++kk) {
        const v8sf b0 = *reinterpret_cast<const v8sf *>(bp + kk * NR);
        const v8sf b1 = *reinterpret_cast<const v8sf *>(bp + kk * NR + 8);
        const float *arow = ap + kk * MR;
        for (int64_t i = 0; i < MR; ++i) {
            const v8sf av = splat(arow[i]);
            acc0[i] += av * b0;
            acc1[i] += av * b1;
        }
    }
    if (mr == MR && nr == NR) {
        for (int64_t i = 0; i < MR; ++i) {
            float *crow = c + i * ldc;
            *reinterpret_cast<v8sf *>(crow) += acc0[i];
            *reinterpret_cast<v8sf *>(crow + 8) += acc1[i];
        }
    } else {
        float tile[MR * NR];
        for (int64_t i = 0; i < MR; ++i) {
            *reinterpret_cast<v8sf *>(tile + i * NR) = acc0[i];
            *reinterpret_cast<v8sf *>(tile + i * NR + 8) = acc1[i];
        }
        for (int64_t i = 0; i < mr; ++i) {
            float *crow = c + i * ldc;
            for (int64_t j = 0; j < nr; ++j)
                crow[j] += tile[i * NR + j];
        }
    }
}

#else // portable scalar fallback

void
microKernel(const float *ap, const float *bp, int64_t kc, float *c,
            int64_t ldc, int64_t mr, int64_t nr)
{
    float acc[MR * NR] = {0.0f};
    for (int64_t kk = 0; kk < kc; ++kk) {
        const float *arow = ap + kk * MR;
        const float *brow = bp + kk * NR;
        for (int64_t i = 0; i < MR; ++i) {
            const float av = arow[i];
            for (int64_t j = 0; j < NR; ++j)
                acc[i * NR + j] += av * brow[j];
        }
    }
    for (int64_t i = 0; i < mr; ++i) {
        float *crow = c + i * ldc;
        for (int64_t j = 0; j < nr; ++j)
            crow[j] += acc[i * NR + j];
    }
}

#endif

} // namespace

namespace detail {

namespace {

/** c[j] = act(c[j] + bias[j]) over [j0, j1); bias indexed absolutely. */
inline void
applyEpilogueRow(float *crow, const Epilogue &epi, int64_t j0, int64_t j1)
{
    dispatchAct(epi.act, [&](auto actc) {
        constexpr ActKind kAct = decltype(actc)::value;
        if (epi.bias != nullptr) {
            for (int64_t j = j0; j < j1; ++j)
                crow[j] = applyAct(kAct, crow[j] + epi.bias[j]);
        } else {
            for (int64_t j = j0; j < j1; ++j)
                crow[j] = applyAct(kAct, crow[j]);
        }
    });
}

/**
 * True when the plain row loop beats packing: a small problem whose B
 * rows are unit-stride and at least one micro-tile wide. Strided B
 * (matmulNT) or narrow N (attention's AV product) makes the row loop's
 * inner j loop short or gathered, so those go through the packed
 * micro-kernel at any size. Both paths accumulate each element in the
 * same k order with the same contraction, so the choice never changes
 * a result bit.
 */
bool
useRowLoop(int64_t b_cs, int64_t m, int64_t k, int64_t n)
{
    return m * n * k <= kSmallGemmMacLimit && b_cs == 1 && n >= NR;
}

/** Grow-only per-thread pack buffer; gemmPacked never nests. */
float *
packBuffer(std::vector<float> &buf, int64_t floats)
{
    if (buf.size() < static_cast<size_t>(floats))
        buf.resize(static_cast<size_t>(floats));
    return buf.data();
}

thread_local std::vector<float> t_apack;
thread_local std::vector<float> t_bpack;

/**
 * The packed path: A and B are converted to f32 panels, the B panels
 * in the calling thread's buffer and A in each worker's own. MC row
 * blocks run in parallel unless the problem fits one block.
 */
void
gemmPacked(const DtOperand &a, const DtOperand &b, float *c, int64_t m,
           int64_t k, int64_t n, const Epilogue *epi)
{
    // Pack-buffer extents for this problem (<= the blocking maxima).
    const int64_t kc_max = std::min(KC, k);
    const int64_t bpanels = (std::min(NC, n) + NR - 1) / NR;
    const int64_t apanels = (std::min(MC, m) + MR - 1) / MR;
    float *bpack = packBuffer(t_bpack, bpanels * kc_max * NR);
    const int64_t blocks = (m + MC - 1) / MC;
    for (int64_t jc = 0; jc < n; jc += NC) {
        const int64_t nc = std::min(NC, n - jc);
        const int64_t npanels = (nc + NR - 1) / NR;
        for (int64_t pc = 0; pc < k; pc += KC) {
            const int64_t kc = std::min(KC, k - pc);
            for (int64_t q = 0; q < npanels; ++q) {
                const int64_t j0 = jc + q * NR;
                packBDt(b, j0, std::min(NR, jc + nc - j0), pc, kc,
                        bpack + q * kc_max * NR);
            }
            const auto rowBlocks = [&](int64_t blk0, int64_t blk1) {
                float *apack = packBuffer(t_apack, apanels * kc_max * MR);
                for (int64_t blk = blk0; blk < blk1; ++blk) {
                    const int64_t ic = blk * MC;
                    const int64_t mc = std::min(MC, m - ic);
                    const int64_t mpanels = (mc + MR - 1) / MR;
                    for (int64_t p = 0; p < mpanels; ++p) {
                        const int64_t i0 = ic + p * MR;
                        packADt(a, i0, std::min(MR, ic + mc - i0), pc, kc,
                                apack + p * kc_max * MR);
                    }
                    for (int64_t q = 0; q < npanels; ++q) {
                        const int64_t j0 = jc + q * NR;
                        const int64_t nr = std::min(NR, jc + nc - j0);
                        for (int64_t p = 0; p < mpanels; ++p) {
                            const int64_t i0 = ic + p * MR;
                            microKernel(apack + p * kc_max * MR,
                                        bpack + q * kc_max * NR, kc,
                                        c + i0 * n + j0, n,
                                        std::min(MR, ic + mc - i0), nr);
                        }
                    }
                    // Columns [jc, jc+nc) of rows [ic, ic+mc) are fully
                    // accumulated once the last k-block lands: apply
                    // the fused epilogue while the tile is cache-hot.
                    // Rows are disjoint across workers (deterministic).
                    if (epi != nullptr && pc + kc >= k) {
                        for (int64_t i = ic; i < ic + mc; ++i)
                            applyEpilogueRow(c + i * n, *epi, jc, jc + nc);
                    }
                }
            };
            if (blocks == 1)
                rowBlocks(0, 1);
            else
                core::parallelFor(0, blocks, 1, rowBlocks);
        }
    }
}

/**
 * The plain row loop for small problems (see useRowLoop), reading both
 * operands through their dtype loaders. The k loop is chunked by KC
 * with a per-chunk accumulator flushed into C, mirroring the packed
 * path's k-grouping: each output row is then bitwise identical
 * whichever side of the (m-dependent) size cutoff a problem lands on,
 * so growing a batch mid-flight cannot perturb the surviving rows.
 */
template <DType DA, DType DB>
void
gemmRows(const DtOperand &a, const DtOperand &b, float *c, int64_t m,
         int64_t k, int64_t n, const Epilogue *epi)
{
    typedef ElemLoader<DA> LA;
    typedef ElemLoader<DB> LB;
    const typename LA::T *pa = static_cast<const typename LA::T *>(a.p);
    const typename LB::T *pb = static_cast<const typename LB::T *>(b.p);
    constexpr int64_t JB = 512;
    float acc[JB];
    for (int64_t i = 0; i < m; ++i) {
        float *crow = c + i * n;
        for (int64_t jb = 0; jb < n; jb += JB) {
            const int64_t jn = std::min(JB, n - jb);
            for (int64_t pc = 0; pc < k; pc += KC) {
                const int64_t kc = std::min(KC, k - pc);
                for (int64_t j = 0; j < jn; ++j)
                    acc[j] = 0.0f;
                for (int64_t kk = pc; kk < pc + kc; ++kk) {
                    const float aik =
                        LA::load(pa + i * a.rs + kk * a.cs, a.scale);
                    const typename LB::T *brow = pb + kk * b.rs;
                    for (int64_t j = 0; j < jn; ++j)
                        acc[j] += aik * LB::load(brow + (jb + j) * b.cs,
                                                 b.scale);
                }
                for (int64_t j = 0; j < jn; ++j)
                    crow[jb + j] += acc[j];
            }
        }
        if (epi != nullptr)
            applyEpilogueRow(crow, *epi, 0, n);
    }
}

} // namespace

/**
 * C[M,N] += A[M,K] * B[K,N]: the f32 case of gemmBlockedDt, whose
 * F32 loaders are plain loads.
 */
void
gemmBlocked(const GemmOperand &a, const GemmOperand &b, float *c,
            int64_t m, int64_t k, int64_t n, const Epilogue *epi)
{
    gemmBlockedDt(DtOperand{a.p, a.rs, a.cs}, DtOperand{b.p, b.rs, b.cs},
                  c, m, k, n, epi);
}

/**
 * C[M,N] += A[M,K] * B[K,N] over dtype-tagged operands: small problems
 * take the row loop, everything else (and every ConvView B) the packed
 * micro-kernel, whose pack loops convert each element to f32 as they
 * copy it.
 */
void
gemmBlockedDt(const DtOperand &a, const DtOperand &b, float *c, int64_t m,
              int64_t k, int64_t n, const Epilogue *epi)
{
    if (b.conv == nullptr && useRowLoop(b.cs, m, k, n)) {
        dispatchDType(a.dt, [&](auto adtc) {
            dispatchDType(b.dt, [&](auto bdtc) {
                gemmRows<decltype(adtc)::value, decltype(bdtc)::value>(
                    a, b, c, m, k, n, epi);
            });
        });
        return;
    }
    gemmPacked(a, b, c, m, k, n, epi);
}

} // namespace detail

namespace {

using detail::gemmBlocked;

/**
 * Shared driver for matmul / matmulNT / matmulTN / linearAct: folds
 * leading batch dimensions, dispatches per-batch blocked GEMMs
 * (parallel over the batch when there are several), and emits one
 * Gemm kernel event named `event` with `extra_flops` added for any
 * fused epilogue work.
 *
 * ta: a holds (..., K, M) and is used transposed.
 * tb: b holds (..., N, K) and is used transposed.
 */
Tensor
matmulImpl(const Tensor &a, const Tensor &b, bool ta, bool tb,
           const detail::Epilogue *epi = nullptr,
           const char *event = "gemm", uint64_t extra_flops = 0)
{
    MM_ASSERT(a.ndim() >= 2 && b.ndim() >= 2,
              "matmul needs rank >= 2, got %s x %s",
              a.shape().toString().c_str(), b.shape().toString().c_str());

    const int64_t m = ta ? a.size(-1) : a.size(-2);
    const int64_t k = ta ? a.size(-2) : a.size(-1);
    const int64_t kb = tb ? b.size(-1) : b.size(-2);
    const int64_t n = tb ? b.size(-2) : b.size(-1);
    MM_ASSERT(k == kb, "matmul inner dims differ: %s x %s",
              a.shape().toString().c_str(), b.shape().toString().c_str());

    // Fold leading dimensions into a batch count.
    int64_t batch_a = a.numel() / (m * k);
    int64_t batch_b = b.numel() / (kb * n);
    MM_ASSERT(batch_a == batch_b || batch_b == 1 || batch_a == 1,
              "matmul batch dims incompatible: %s x %s",
              a.shape().toString().c_str(), b.shape().toString().c_str());
    const int64_t batch = std::max(batch_a, batch_b);

    // Output shape: batch dims come from the higher-rank operand.
    std::vector<int64_t> out_dims;
    const Shape &lead = (batch_a >= batch_b) ? a.shape() : b.shape();
    for (size_t i = 0; i + 2 < lead.ndim(); ++i)
        out_dims.push_back(lead[i]);
    out_dims.push_back(m);
    out_dims.push_back(n);
    Tensor out = Tensor::zeros(Shape(std::move(out_dims)));

    const float *pa = a.data();
    const float *pb = b.data();
    float *pc = out.data();
    const auto runBatch = [&](int64_t b0, int64_t b1) {
        for (int64_t bi = b0; bi < b1; ++bi) {
            const float *abase = pa + (batch_a == 1 ? 0 : bi) * m * k;
            const float *bbase = pb + (batch_b == 1 ? 0 : bi) * k * n;
            const GemmOperand oa = ta ? GemmOperand{abase, 1, m}
                                      : GemmOperand{abase, k, 1};
            const GemmOperand ob = tb ? GemmOperand{bbase, 1, k}
                                      : GemmOperand{bbase, n, 1};
            gemmBlocked(oa, ob, pc + bi * m * n, m, k, n, epi);
        }
    };
    if (batch >= core::numThreads()) {
        // Spread batches over the pool; each per-batch GEMM then runs
        // serially inside its worker (no nested parallelism).
        core::parallelFor(0, batch, 1, runBatch);
    } else {
        runBatch(0, batch); // each GEMM parallelizes over row blocks
    }

    const uint64_t flops =
        2ULL * static_cast<uint64_t>(batch) * static_cast<uint64_t>(m) *
        static_cast<uint64_t>(k) * static_cast<uint64_t>(n) + extra_flops;
    trace::emitKernel(trace::KernelClass::Gemm, event, flops,
                      a.bytes() + b.bytes(), out.bytes());
    return out;
}

} // namespace

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    return matmulImpl(a, b, false, false);
}

Tensor
matmulNT(const Tensor &a, const Tensor &b)
{
    return matmulImpl(a, b, false, true);
}

Tensor
matmulTN(const Tensor &a, const Tensor &b)
{
    return matmulImpl(a, b, true, false);
}

const char *
actKindName(ActKind act)
{
    switch (act) {
      case ActKind::None:    return "none";
      case ActKind::Relu:    return "relu";
      case ActKind::Sigmoid: return "sigmoid";
      case ActKind::Tanh:    return "tanh";
      case ActKind::Gelu:    return "gelu";
    }
    return "none";
}

namespace {

/**
 * Canonical `fused:<pattern>` event names. KernelEvent keeps a raw
 * `const char *`, so these must be static strings. A plain GEMM with
 * neither bias nor activation keeps the unfused "gemm" name.
 */
const char *
fusedLinearName(bool bias, ActKind act)
{
    static const char *with_bias[] = {
        "fused:linear_bias", "fused:linear_bias_relu",
        "fused:linear_bias_sigmoid", "fused:linear_bias_tanh",
        "fused:linear_bias_gelu",
    };
    static const char *no_bias[] = {
        "gemm", "fused:linear_relu", "fused:linear_sigmoid",
        "fused:linear_tanh", "fused:linear_gelu",
    };
    const int i = static_cast<int>(act);
    return bias ? with_bias[i] : no_bias[i];
}

} // namespace

Tensor
linearAct(const Tensor &x, const Tensor &w, const Tensor &b, ActKind act,
          GemmAlgo algo)
{
    MM_ASSERT(w.ndim() == 2, "linearAct weight must be (K,N), got %s",
              w.shape().toString().c_str());
    const bool has_bias = b.defined();
    if (has_bias)
        MM_ASSERT(b.ndim() == 1 && b.size(0) == w.size(1),
                  "linearAct bias must be (%lld), got %s",
                  static_cast<long long>(w.size(1)),
                  b.shape().toString().c_str());

    const detail::Epilogue epi{has_bias ? b.data() : nullptr, act};
    const int64_t rows = x.numel() / x.size(-1);
    const int64_t n = w.size(1);
    const uint64_t extra =
        static_cast<uint64_t>(rows * n) * ((has_bias ? 1 : 0) + actFlops(act));
    const char *event = fusedLinearName(has_bias, act);

    if (algo == GemmAlgo::Auto)
        return matmulImpl(x, w, false, false, &epi, event, extra);

    // Direct i-k-j loop at any size: the tiny-shape solver candidate.
    MM_ASSERT(x.ndim() >= 2, "linearAct needs rank >= 2, got %s",
              x.shape().toString().c_str());
    const int64_t k = x.size(-1);
    MM_ASSERT(k == w.size(0), "linearAct inner dims differ: %s x %s",
              x.shape().toString().c_str(), w.shape().toString().c_str());
    std::vector<int64_t> out_dims;
    for (size_t i = 0; i + 1 < x.shape().ndim(); ++i)
        out_dims.push_back(x.shape()[i]);
    out_dims.push_back(n);
    Tensor out = Tensor::zeros(Shape(std::move(out_dims)));
    const float *px = x.data();
    const float *pw = w.data();
    float *pc = out.data();
    for (int64_t i = 0; i < rows; ++i) {
        float *crow = pc + i * n;
        const float *xrow = px + i * k;
        for (int64_t kk = 0; kk < k; ++kk) {
            const float aik = xrow[kk];
            const float *wrow = pw + kk * n;
            for (int64_t j = 0; j < n; ++j)
                crow[j] += aik * wrow[j];
        }
        detail::applyEpilogueRow(crow, epi, 0, n);
    }
    const uint64_t flops = 2ULL * static_cast<uint64_t>(rows) *
                           static_cast<uint64_t>(k) *
                           static_cast<uint64_t>(n) + extra;
    trace::emitKernel(trace::KernelClass::Gemm, event, flops,
                      x.bytes() + w.bytes(), out.bytes());
    return out;
}

namespace {

/** Static Gemm event names for the reduced-precision entry points. */
const char *
gemmDtName(DType wdt, bool mixed)
{
    switch (wdt) {
      case DType::BF16: return mixed ? "gemm_bf16_mixed" : "gemm_bf16";
      case DType::F16:  return mixed ? "gemm_f16_mixed" : "gemm_f16";
      case DType::I8:   return mixed ? "gemm_i8_mixed" : "gemm_i8";
      case DType::F32:  break;
    }
    return "gemm";
}

} // namespace

Tensor
linearActDt(const Tensor &x, const Tensor &w, const Tensor &b, ActKind act)
{
    MM_ASSERT(x.ndim() >= 2 && w.ndim() == 2,
              "linearActDt needs rank >= 2 x (K,N), got %s x %s",
              x.shape().toString().c_str(), w.shape().toString().c_str());
    const int64_t k = x.size(-1);
    MM_ASSERT(k == w.size(0), "linearActDt inner dims differ: %s x %s",
              x.shape().toString().c_str(), w.shape().toString().c_str());
    const bool has_bias = b.defined();
    if (has_bias)
        MM_ASSERT(b.ndim() == 1 && b.size(0) == w.size(1) &&
                      b.dtype() == DType::F32,
                  "linearActDt bias must be f32 (%lld), got %s",
                  static_cast<long long>(w.size(1)),
                  b.shape().toString().c_str());

    const int64_t rows = x.numel() / k;
    const int64_t n = w.size(1);
    std::vector<int64_t> out_dims;
    for (size_t i = 0; i + 1 < x.shape().ndim(); ++i)
        out_dims.push_back(x.shape()[i]);
    out_dims.push_back(n);
    Tensor out = Tensor::zeros(Shape(std::move(out_dims)));

    const detail::DtOperand oa{
        x.rawData(), k, 1, x.dtype(),
        x.dtype() == DType::I8 ? x.quantScale() : 1.0f};
    const detail::DtOperand ob{
        w.rawData(), n, 1, w.dtype(),
        w.dtype() == DType::I8 ? w.quantScale() : 1.0f};
    const detail::Epilogue epi{has_bias ? b.data() : nullptr, act};
    detail::gemmBlockedDt(oa, ob, out.data(), rows, k, n, &epi);

    const bool mixed =
        x.dtype() == DType::F32 && w.dtype() != DType::F32;
    const DType event_dt =
        w.dtype() != DType::F32 ? w.dtype() : x.dtype();
    const uint64_t flops =
        2ULL * static_cast<uint64_t>(rows) * static_cast<uint64_t>(k) *
            static_cast<uint64_t>(n) +
        static_cast<uint64_t>(rows * n) *
            ((has_bias ? 1 : 0) + actFlops(act));
    trace::emitKernel(trace::KernelClass::Gemm, gemmDtName(event_dt, mixed),
                      flops,
                      x.bytes() + w.bytes() + (has_bias ? b.bytes() : 0),
                      out.bytes());
    return out;
}

Tensor
matmulReference(const Tensor &a, const Tensor &b)
{
    MM_ASSERT(a.ndim() >= 2 && b.ndim() >= 2,
              "matmulReference needs rank >= 2");
    const int64_t m = a.size(-2);
    const int64_t k = a.size(-1);
    const int64_t n = b.size(-1);
    MM_ASSERT(k == b.size(-2), "matmulReference inner dims differ");
    int64_t batch_a = a.numel() / (m * k);
    int64_t batch_b = b.numel() / (k * n);
    MM_ASSERT(batch_a == batch_b || batch_b == 1 || batch_a == 1,
              "matmulReference batch dims incompatible");
    const int64_t batch = std::max(batch_a, batch_b);

    std::vector<int64_t> out_dims;
    const Shape &lead = (batch_a >= batch_b) ? a.shape() : b.shape();
    for (size_t i = 0; i + 2 < lead.ndim(); ++i)
        out_dims.push_back(lead[i]);
    out_dims.push_back(m);
    out_dims.push_back(n);
    Tensor out = Tensor::zeros(Shape(std::move(out_dims)));

    const float *pa = a.data();
    const float *pb = b.data();
    float *pc = out.data();
    for (int64_t bi = 0; bi < batch; ++bi) {
        const float *abase = pa + (batch_a == 1 ? 0 : bi) * m * k;
        const float *bbase = pb + (batch_b == 1 ? 0 : bi) * k * n;
        float *cbase = pc + bi * m * n;
        for (int64_t i = 0; i < m; ++i) {
            for (int64_t kk = 0; kk < k; ++kk) {
                const float aik = abase[i * k + kk];
                const float *brow = bbase + kk * n;
                float *crow = cbase + i * n;
                for (int64_t j = 0; j < n; ++j)
                    crow[j] += aik * brow[j];
            }
        }
    }
    return out;
}

Tensor
outerBatch(const Tensor &a, const Tensor &b)
{
    MM_ASSERT(a.ndim() == 2 && b.ndim() == 2 && a.size(0) == b.size(0),
              "outerBatch needs (B,m) x (B,n), got %s x %s",
              a.shape().toString().c_str(), b.shape().toString().c_str());
    const int64_t batch = a.size(0);
    const int64_t m = a.size(1);
    const int64_t n = b.size(1);
    Tensor out(Shape{batch, m, n});
    const float *pa = a.data();
    const float *pb = b.data();
    float *pc = out.data();
    core::parallelFor(0, batch, 1, [&](int64_t b0, int64_t b1) {
        for (int64_t bi = b0; bi < b1; ++bi) {
            const float *av = pa + bi * m;
            const float *bv = pb + bi * n;
            float *cv = pc + bi * m * n;
            for (int64_t i = 0; i < m; ++i) {
                for (int64_t j = 0; j < n; ++j)
                    cv[i * n + j] = av[i] * bv[j];
            }
        }
    });
    trace::emitKernel(trace::KernelClass::Gemm, "outer",
                      static_cast<uint64_t>(batch * m * n),
                      a.bytes() + b.bytes(), out.bytes());
    return out;
}

} // namespace tensor
} // namespace mmbench
