/**
 * @file
 * Internal helpers shared by the tensor operator implementations.
 * Not part of the public API.
 */

#ifndef MMBENCH_TENSOR_OPS_COMMON_HH
#define MMBENCH_TENSOR_OPS_COMMON_HH

#include <cstdint>
#include <vector>

#include "tensor/ops.hh"
#include "tensor/shape.hh"

namespace mmbench {
namespace tensor {
namespace detail {

/** True if `small` equals the trailing dimensions of `big`. */
bool isSuffix(const Shape &small, const Shape &big);

/**
 * One input of the blocked GEMM: base pointer plus element strides,
 * so transposed operands need no copy.
 */
struct GemmOperand
{
    const float *p;
    int64_t rs; ///< stride between rows (first logical index)
    int64_t cs; ///< stride between columns (second logical index)
};

/**
 * Fused write-back applied to each output element once it is fully
 * accumulated: c = act(c + bias[col]). bias may be null (activation
 * only); with bias == nullptr and act == None the epilogue is a no-op
 * and the kernel is exactly the plain GEMM.
 */
struct Epilogue
{
    const float *bias = nullptr; ///< per-column bias, or nullptr
    ActKind act = ActKind::None;
};

/**
 * C[M,N] += A[M,K] * B[K,N] with cache blocking and packed panels;
 * C is contiguous row-major (ldc = n). Small problems with unit-stride
 * B at least 16 columns wide take a plain row loop instead; strided B
 * (matmulNT) and narrow N always pack. Parallelizes over row blocks
 * when there is more than one, unless called from inside a parallel
 * region. Deterministic for any thread count, and each element is
 * bitwise the same on either path. Implemented in ops_matmul.cc;
 * conv2d reuses it through gemmBlockedDt and a ConvView B operand.
 *
 * When `epi` is non-null its bias/activation are applied to each
 * output element exactly once, immediately after the element's last
 * k-block is accumulated (while the tile is cache-hot). Because the
 * epilogue reads the fully accumulated value, the result matches a
 * separate bias-add + activation pass bitwise.
 */
void gemmBlocked(const GemmOperand &a, const GemmOperand &b, float *c,
                 int64_t m, int64_t k, int64_t n,
                 const Epilogue *epi = nullptr);

/**
 * Conv geometry through which a GEMM B operand reads one CHW image as
 * its implicit column matrix (the matrix im2col would write):
 * B[(ci*kh + ky)*kw + kx][oy*ow + ox] =
 * x[ci][oy*stride - pad + ky][ox*stride - pad + kx], and 0 where that
 * tap falls in the padding.
 */
struct ConvView
{
    int64_t h, w; ///< input plane extents
    int kh, kw, stride, pad;
    int64_t oh, ow; ///< output plane extents
};

/**
 * A dtype-tagged GEMM operand: like GemmOperand, but elements are
 * read through a converting loader selected by `dt` (i8 elements are
 * dequantized by `scale` while packing). With dt == F32 this
 * degenerates to GemmOperand and `scale` is ignored.
 *
 * A B operand with `conv` set is an image read through that view
 * instead (`rs`/`cs` unused): the pack loop gathers each panel from
 * the image, so no column matrix is ever written.
 */
struct DtOperand
{
    const void *p;
    int64_t rs; ///< stride between rows (in elements)
    int64_t cs; ///< stride between columns (in elements)
    DType dt = DType::F32;
    float scale = 1.0f; ///< i8 dequantization scale
    const ConvView *conv = nullptr; ///< B only: implicit im2col view
};

/**
 * gemmBlocked over dtype-tagged operands: identical blocking, packing
 * and ascending k-order (deterministic for any thread count), with
 * f32 accumulation throughout. The element conversions run inside the
 * pack loops, so the register micro-kernel is reused unchanged;
 * gemmBlocked is its case with two F32 operands. A ConvView B always
 * takes the packed path; its panels hold exactly the floats packing
 * the explicit column matrix would, so C is bitwise the same.
 */
void gemmBlockedDt(const DtOperand &a, const DtOperand &b, float *c,
                   int64_t m, int64_t k, int64_t n,
                   const Epilogue *epi = nullptr);

/**
 * Element strides for iterating tensor `in` along the axes of the
 * broadcast output shape `out` (stride 0 on broadcast axes).
 */
std::vector<int64_t> broadcastStrides(const Shape &in, const Shape &out);

} // namespace detail
} // namespace tensor
} // namespace mmbench

#endif // MMBENCH_TENSOR_OPS_COMMON_HH
