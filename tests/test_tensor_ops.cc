/**
 * @file
 * Unit and property tests for the tensor operator library.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "autograd/ops.hh"
#include "core/parallel.hh"
#include "tensor/ops.hh"
#include "tensor/ops_common.hh"
#include "tensor/pool.hh"
#include "trace/sink.hh"

namespace mmbench {
namespace tensor {
namespace {

Tensor
t2(std::initializer_list<float> v, int64_t r, int64_t c)
{
    return Tensor::fromVector(Shape{r, c}, std::vector<float>(v));
}

/** Bitwise equality (NaN payloads and signed zeros included). */
bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(Elementwise, AddSameShape)
{
    Tensor a = t2({1, 2, 3, 4}, 2, 2);
    Tensor b = t2({10, 20, 30, 40}, 2, 2);
    Tensor c = add(a, b);
    EXPECT_EQ(c.toVector(), (std::vector<float>{11, 22, 33, 44}));
}

TEST(Elementwise, SubMulDiv)
{
    Tensor a = t2({4, 9, 16, 25}, 2, 2);
    Tensor b = t2({2, 3, 4, 5}, 2, 2);
    EXPECT_EQ(sub(a, b).toVector(), (std::vector<float>{2, 6, 12, 20}));
    EXPECT_EQ(mul(a, b).toVector(), (std::vector<float>{8, 27, 64, 125}));
    EXPECT_EQ(div(a, b).toVector(), (std::vector<float>{2, 3, 4, 5}));
}

TEST(Elementwise, BroadcastBiasAdd)
{
    // (2,3) + (3) — the classic bias add.
    Tensor a = t2({1, 2, 3, 4, 5, 6}, 2, 3);
    Tensor b = Tensor::fromVector(Shape{3}, {10, 20, 30});
    Tensor c = add(a, b);
    EXPECT_EQ(c.toVector(), (std::vector<float>{11, 22, 33, 14, 25, 36}));
}

TEST(Elementwise, BroadcastScalarTensor)
{
    Tensor a = t2({1, 2, 3, 4}, 2, 2);
    Tensor s = Tensor::scalar(100.0f);
    EXPECT_EQ(add(a, s).toVector(), (std::vector<float>{101, 102, 103, 104}));
    EXPECT_EQ(add(s, a).toVector(), (std::vector<float>{101, 102, 103, 104}));
}

TEST(Elementwise, BroadcastGeneralMiddleAxis)
{
    // (2,1,2) * (1,3,1) -> (2,3,2)
    Tensor a = Tensor::fromVector(Shape{2, 1, 2}, {1, 2, 3, 4});
    Tensor b = Tensor::fromVector(Shape{1, 3, 1}, {1, 10, 100});
    Tensor c = mul(a, b);
    EXPECT_EQ(c.shape(), (Shape{2, 3, 2}));
    EXPECT_EQ(c.toVector(),
              (std::vector<float>{1, 2, 10, 20, 100, 200,
                                  3, 4, 30, 40, 300, 400}));
}

TEST(Elementwise, BroadcastLeftSuffix)
{
    // (3) + (2,3): output takes b's shape, a is the suffix.
    Tensor a = Tensor::fromVector(Shape{3}, {1, 2, 3});
    Tensor b = t2({10, 20, 30, 40, 50, 60}, 2, 3);
    EXPECT_EQ(add(a, b).toVector(),
              (std::vector<float>{11, 22, 33, 41, 52, 63}));
}

TEST(Elementwise, ScalarOps)
{
    Tensor a = t2({1, 2, 3, 4}, 2, 2);
    EXPECT_EQ(addScalar(a, 1.0f).toVector(),
              (std::vector<float>{2, 3, 4, 5}));
    EXPECT_EQ(mulScalar(a, 2.0f).toVector(),
              (std::vector<float>{2, 4, 6, 8}));
}

TEST(Elementwise, UnaryMath)
{
    Tensor a = Tensor::fromVector(Shape{3}, {-1.0f, 0.0f, 2.0f});
    EXPECT_EQ(reluF(a).toVector(), (std::vector<float>{0, 0, 2}));
    EXPECT_EQ(neg(a).toVector(), (std::vector<float>{1, 0, -2}));
    EXPECT_EQ(absF(a).toVector(), (std::vector<float>{1, 0, 2}));
    EXPECT_EQ(squareF(a).toVector(), (std::vector<float>{1, 0, 4}));
    EXPECT_EQ(gtZeroMask(a).toVector(), (std::vector<float>{0, 0, 1}));
}

TEST(Elementwise, SigmoidTanhValues)
{
    Tensor a = Tensor::fromVector(Shape{2}, {0.0f, 100.0f});
    Tensor s = sigmoidF(a);
    EXPECT_NEAR(s.at(0), 0.5f, 1e-6f);
    EXPECT_NEAR(s.at(1), 1.0f, 1e-6f);
    Tensor t = tanhF(Tensor::fromVector(Shape{2}, {0.0f, 2.0f}));
    EXPECT_NEAR(t.at(0), 0.0f, 1e-6f);
    EXPECT_NEAR(t.at(1), std::tanh(2.0f), 1e-6f);
}

TEST(Elementwise, GeluApproximation)
{
    Tensor g = geluF(Tensor::fromVector(Shape{3}, {-10.0f, 0.0f, 10.0f}));
    EXPECT_NEAR(g.at(0), 0.0f, 1e-3f);
    EXPECT_NEAR(g.at(1), 0.0f, 1e-6f);
    EXPECT_NEAR(g.at(2), 10.0f, 1e-3f);
}

TEST(Elementwise, ExpLogSqrtClamp)
{
    Tensor a = Tensor::fromVector(Shape{2}, {1.0f, 4.0f});
    EXPECT_NEAR(expF(a).at(1), std::exp(4.0f), 1e-2f);
    EXPECT_NEAR(logF(a).at(1), std::log(4.0f), 1e-6f);
    EXPECT_NEAR(sqrtF(a).at(1), 2.0f, 1e-6f);
    Tensor c = clampF(Tensor::fromVector(Shape{3}, {-5, 0.5, 5}), 0.0f, 1.0f);
    EXPECT_EQ(c.toVector(), (std::vector<float>{0, 0.5, 1}));
}

// ------------------------------------------------------------------
// The vectorized transcendentals against a double-precision reference.

/** |got - ref| in units of the float ulp at ref (ref must be normal). */
double
ulpError(float got, double ref)
{
    const double ulp =
        std::ldexp(1.0, std::ilogb(static_cast<float>(ref)) - 23);
    return std::fabs(static_cast<double>(got) - ref) / ulp;
}

bool
isNormalFloat(double v)
{
    return std::isnormal(static_cast<float>(v));
}

/**
 * Sweep inputs: a uniform grid over [lo, hi] plus, for each sign,
 * magnitudes spaced geometrically from 1e-37 up to hi.
 */
std::vector<float>
sweepInputs(float lo, float hi)
{
    std::vector<float> xs;
    const int grid = 400000;
    for (int i = 0; i <= grid; ++i)
        xs.push_back(lo + (hi - lo) * static_cast<float>(i) / grid);
    for (float mag = 1e-37f; mag < hi; mag *= 1.001f) {
        xs.push_back(mag);
        if (-mag >= lo)
            xs.push_back(-mag);
    }
    return xs;
}

/** Apply a tensor kernel to a flat input list (the vectorized path). */
std::vector<float>
applyKernel(Tensor (*kernel)(const Tensor &), const std::vector<float> &xs)
{
    return kernel(Tensor::fromVector(Shape{static_cast<int64_t>(xs.size())},
                                     xs))
        .toVector();
}

TEST(Transcendentals, ExpWithinTwoUlp)
{
    const std::vector<float> xs = sweepInputs(-87.0f, 88.0f);
    std::vector<float> ys(xs.size());
    for (size_t i = 0; i < xs.size(); ++i)
        ys[i] = vexp(xs[i]);
    for (size_t i = 0; i < xs.size(); ++i) {
        ASSERT_LE(ulpError(ys[i], std::exp(double(xs[i]))), 2.0)
            << "exp(" << xs[i] << ") = " << ys[i];
    }
}

TEST(Transcendentals, TanhWithinFourUlp)
{
    const std::vector<float> xs = sweepInputs(-20.0f, 20.0f);
    const std::vector<float> ys = applyKernel(tanhF, xs);
    for (size_t i = 0; i < xs.size(); ++i) {
        const double ref = std::tanh(double(xs[i]));
        if (!isNormalFloat(ref))
            continue;
        ASSERT_LE(ulpError(ys[i], ref), 4.0)
            << "tanh(" << xs[i] << ") = " << ys[i];
    }
}

TEST(Transcendentals, SigmoidWithinFourUlp)
{
    const std::vector<float> xs = sweepInputs(-100.0f, 100.0f);
    const std::vector<float> ys = applyKernel(sigmoidF, xs);
    for (size_t i = 0; i < xs.size(); ++i) {
        const double ref = 1.0 / (1.0 + std::exp(-double(xs[i])));
        if (!isNormalFloat(ref))
            continue;
        ASSERT_LE(ulpError(ys[i], ref), 4.0)
            << "sigmoid(" << xs[i] << ") = " << ys[i];
    }
}

TEST(Transcendentals, GeluTracksDoubleReference)
{
    // 0.5 x (1 + tanh(u)) cancels for negative x, so the bound is
    // absolute in |x|: a 4-ulp tanh error near |tanh| = 1 moves the
    // result by at most 0.5 |x| * 4 * 2^-24, plus 4 ulp of rounding
    // in the final products.
    const std::vector<float> xs = sweepInputs(-12.0f, 12.0f);
    const std::vector<float> ys = applyKernel(geluF, xs);
    for (size_t i = 0; i < xs.size(); ++i) {
        const double x = xs[i];
        const double u = 0.7978845608 * (x + 0.044715 * x * x * x);
        const double ref = 0.5 * x * (1.0 + std::tanh(u));
        const double ulp_ref =
            isNormalFloat(ref)
                ? std::ldexp(1.0, std::ilogb(static_cast<float>(ref)) - 23)
                : 0.0;
        const double tol = 0.5 * std::fabs(x) * std::ldexp(4.0, -24) +
                           4.0 * ulp_ref;
        ASSERT_LE(std::fabs(ys[i] - ref), tol)
            << "gelu(" << xs[i] << ") = " << ys[i];
    }
}

TEST(Transcendentals, EdgeCases)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    EXPECT_EQ(vexp(inf), inf);
    EXPECT_EQ(vexp(-inf), 0.0f);
    EXPECT_EQ(vexp(0.0f), 1.0f);
    EXPECT_TRUE(std::isnan(vexp(nan)));
    EXPECT_EQ(vexp(89.0f), inf);      // past FLT_MAX
    EXPECT_EQ(vexp(-104.0f), 0.0f);   // below half the least subnormal
    EXPECT_GT(vexp(-100.0f), 0.0f);   // subnormal, not flushed

    const std::vector<float> edges = {inf, -inf, nan, 0.0f, -0.0f};
    const std::vector<float> th = applyKernel(tanhF, edges);
    EXPECT_EQ(th[0], 1.0f);
    EXPECT_EQ(th[1], -1.0f);
    EXPECT_TRUE(std::isnan(th[2]));
    EXPECT_EQ(th[3], 0.0f);
    EXPECT_TRUE(std::signbit(th[4]));
    const std::vector<float> sg = applyKernel(sigmoidF, edges);
    EXPECT_EQ(sg[0], 1.0f);
    EXPECT_EQ(sg[1], 0.0f);
    EXPECT_TRUE(std::isnan(sg[2]));
    EXPECT_EQ(sg[3], 0.5f);
    const std::vector<float> ge = applyKernel(geluF, edges);
    EXPECT_TRUE(std::isnan(ge[2]));
    EXPECT_EQ(ge[3], 0.0f);
}

TEST(Transcendentals, FusedEpilogueBitwiseEqualsStandalone)
{
    // applyAct is the one definition: the GEMM epilogue and the
    // standalone kernels must agree bit for bit, on both GEMM paths
    // (row loop for 8x40x32, packed for 8x40x8 and 130x70x150).
    Rng rng(31);
    const struct { int64_t m, k, n; } shapes[] = {
        {8, 40, 32}, {8, 40, 8}, {130, 70, 150}};
    for (const auto &s : shapes) {
        Tensor x = Tensor::randn(Shape{s.m, s.k}, rng, 0.5f);
        Tensor w = Tensor::randn(Shape{s.k, s.n}, rng, 0.5f);
        Tensor b = Tensor::randn(Shape{s.n}, rng);
        const Tensor lin = matmul(x, w);
        const Tensor lin_b = add(lin, b);
        const struct
        {
            ActKind act;
            Tensor (*standalone)(const Tensor &);
        } acts[] = {{ActKind::Sigmoid, sigmoidF},
                    {ActKind::Tanh, tanhF},
                    {ActKind::Gelu, geluF},
                    {ActKind::Relu, reluF}};
        for (const auto &a : acts) {
            SCOPED_TRACE(actKindName(a.act));
            EXPECT_EQ(linearAct(x, w, Tensor(), a.act).toVector(),
                      a.standalone(lin).toVector());
            EXPECT_EQ(linearAct(x, w, b, a.act).toVector(),
                      a.standalone(lin_b).toVector());
        }
    }
}

TEST(Elementwise, DropoutMaskStatistics)
{
    Rng rng(5);
    Tensor m = dropoutMask(Shape{10000}, 0.25f, rng);
    int64_t zeros = 0;
    for (int64_t i = 0; i < m.numel(); ++i) {
        if (m.at(i) == 0.0f) {
            ++zeros;
        } else {
            EXPECT_NEAR(m.at(i), 1.0f / 0.75f, 1e-6f);
        }
    }
    EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.25, 0.02);
}

TEST(Matmul, Basic2D)
{
    Tensor a = t2({1, 2, 3, 4, 5, 6}, 2, 3);
    Tensor b = t2({7, 8, 9, 10, 11, 12}, 3, 2);
    Tensor c = matmul(a, b);
    EXPECT_EQ(c.shape(), (Shape{2, 2}));
    EXPECT_EQ(c.toVector(), (std::vector<float>{58, 64, 139, 154}));
}

TEST(Matmul, IdentityProperty)
{
    Rng rng(6);
    Tensor a = Tensor::randn(Shape{5, 5}, rng);
    Tensor eye = Tensor::zeros(Shape{5, 5});
    for (int64_t i = 0; i < 5; ++i)
        eye.at(i, i) = 1.0f;
    EXPECT_TRUE(allClose(matmul(a, eye), a, 1e-5f));
    EXPECT_TRUE(allClose(matmul(eye, a), a, 1e-5f));
}

TEST(Matmul, Batched3D)
{
    // Two independent 2x2 @ 2x2 products.
    Tensor a = Tensor::fromVector(Shape{2, 2, 2}, {1, 0, 0, 1, 2, 0, 0, 2});
    Tensor b = Tensor::fromVector(Shape{2, 2, 2}, {5, 6, 7, 8, 5, 6, 7, 8});
    Tensor c = matmul(a, b);
    EXPECT_EQ(c.shape(), (Shape{2, 2, 2}));
    EXPECT_EQ(c.toVector(),
              (std::vector<float>{5, 6, 7, 8, 10, 12, 14, 16}));
}

TEST(Matmul, BatchedSharedRhs)
{
    // (2,1,2) x (2,3) -> (2,1,3)
    Tensor a = Tensor::fromVector(Shape{2, 1, 2}, {1, 2, 3, 4});
    Tensor b = t2({1, 2, 3, 4, 5, 6}, 2, 3);
    Tensor c = matmul(a, b);
    EXPECT_EQ(c.shape(), (Shape{2, 1, 3}));
    EXPECT_EQ(c.toVector(), (std::vector<float>{9, 12, 15, 19, 26, 33}));
}

TEST(Matmul, EmitsGemmEventWithCorrectFlops)
{
    trace::RecordingSink sink;
    trace::ScopedSink guard(sink);
    Rng rng(7);
    Tensor a = Tensor::randn(Shape{4, 8}, rng);
    Tensor b = Tensor::randn(Shape{8, 2}, rng);
    sink.clear();
    matmul(a, b);
    ASSERT_EQ(sink.kernels.size(), 1u);
    EXPECT_EQ(sink.kernels[0].kclass, trace::KernelClass::Gemm);
    EXPECT_EQ(sink.kernels[0].flops, 2u * 4 * 8 * 2);
}

TEST(Matmul, RowsBitwiseStableAcrossSizeCutoff)
{
    // 2*64*512 = 65536 macs sits exactly at the small-GEMM cutoff, so
    // m=2 takes the small path while m=4 takes the blocked path. Serve
    // batching changes the batch dim a request runs at, so a row's
    // result must not depend on which side of the cutoff its batch
    // landed.
    Rng rng(11);
    Tensor a4 = Tensor::randn(Shape{4, 512}, rng);
    Tensor b = Tensor::randn(Shape{512, 64}, rng);
    Tensor a2 = narrow(a4, 0, 0, 2);
    Tensor c4 = matmul(a4, b);
    Tensor c2 = matmul(a2, b);
    ASSERT_EQ(c2.numel(), 2 * 64);
    for (int64_t i = 0; i < c2.numel(); ++i)
        ASSERT_EQ(c2.data()[i], c4.data()[i]) << "element " << i;

    // Strided B (matmulNT) and N below one micro-tile always take the
    // packed path. Their rows must match the same rows computed in a
    // smaller batch and through a contiguous B (which may take the row
    // loop) bit for bit.
    for (const int64_t n : {int64_t{64}, int64_t{8}, int64_t{3}}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        Tensor bt = Tensor::randn(Shape{n, 512}, rng); // (N, K)
        Tensor bn = transpose2d(bt);
        const std::vector<float> ref = matmul(a2, bn).toVector();
        const std::vector<float> nt4 = matmulNT(a4, bt).toVector();
        const std::vector<float> nn4 = matmul(a4, bn).toVector();
        EXPECT_EQ(matmulNT(a2, bt).toVector(), ref);
        EXPECT_EQ(std::vector<float>(nt4.begin(), nt4.begin() + 2 * n),
                  ref);
        EXPECT_EQ(std::vector<float>(nn4.begin(), nn4.begin() + 2 * n),
                  ref);
    }
}

TEST(Matmul, DtypeRowsBitwiseStableAcrossSizeCutoff)
{
    // Same cutoff-crossing shapes through the reduced-precision GEMM.
    Rng rng(12);
    Tensor a4f = Tensor::randn(Shape{4, 512}, rng);
    Tensor a2f = narrow(a4f, 0, 0, 2);
    Tensor w = castTo(Tensor::randn(Shape{512, 64}, rng), DType::BF16);
    Tensor c4 = linearActDt(castTo(a4f, DType::BF16), w, Tensor(),
                            ActKind::None);
    Tensor c2 = linearActDt(castTo(a2f, DType::BF16), w, Tensor(),
                            ActKind::None);
    ASSERT_EQ(c2.numel(), 2 * 64);
    for (int64_t i = 0; i < c2.numel(); ++i)
        ASSERT_EQ(c2.data()[i], c4.data()[i]) << "element " << i;
}

TEST(Matmul, OuterBatch)
{
    Tensor a = t2({1, 2, 3, 4}, 2, 2);
    Tensor b = t2({5, 6, 7, 8, 9, 10}, 2, 3);
    Tensor c = outerBatch(a, b);
    EXPECT_EQ(c.shape(), (Shape{2, 2, 3}));
    // batch 0: [1,2] outer [5,6,7]
    EXPECT_EQ(c.at(0), 5.0f);
    EXPECT_EQ(c.at(5), 14.0f);
    // batch 1: [3,4] outer [8,9,10]
    EXPECT_EQ(c.at(6), 24.0f);
    EXPECT_EQ(c.at(11), 40.0f);
}

TEST(Layout, Transpose2D)
{
    Tensor a = t2({1, 2, 3, 4, 5, 6}, 2, 3);
    Tensor t = transpose2d(a);
    EXPECT_EQ(t.shape(), (Shape{3, 2}));
    EXPECT_EQ(t.toVector(), (std::vector<float>{1, 4, 2, 5, 3, 6}));
}

TEST(Layout, TransposeTwiceIsIdentity)
{
    Rng rng(8);
    Tensor a = Tensor::randn(Shape{5, 7}, rng);
    EXPECT_TRUE(allClose(transpose2d(transpose2d(a)), a));
}

TEST(Layout, PermuteNCHWToNHWC)
{
    Tensor a = Tensor::arange(2 * 3 * 4).reshape(Shape{1, 2, 3, 4});
    Tensor p = permute(a, {0, 2, 3, 1});
    EXPECT_EQ(p.shape(), (Shape{1, 3, 4, 2}));
    // p[0][h][w][c] == a[0][c][h][w]; check a couple of entries.
    // a[0][1][2][3] = 1*12 + 2*4 + 3 = 23 -> p index h=2,w=3,c=1
    EXPECT_EQ(p.at(2 * 8 + 3 * 2 + 1), 23.0f);
}

TEST(Layout, SwapDims)
{
    Tensor a = Tensor::arange(6).reshape(Shape{2, 3});
    Tensor s = swapDims(a, 0, 1);
    EXPECT_TRUE(allClose(s, transpose2d(a)));
    Tensor b = Tensor::arange(24).reshape(Shape{2, 3, 4});
    Tensor sb = swapDims(b, -2, -1);
    EXPECT_EQ(sb.shape(), (Shape{2, 4, 3}));
}

TEST(Reduce, SumMeanAll)
{
    Tensor a = t2({1, 2, 3, 4}, 2, 2);
    EXPECT_EQ(sumAll(a).item(), 10.0f);
    EXPECT_EQ(meanAll(a).item(), 2.5f);
}

TEST(Reduce, SumAxis)
{
    Tensor a = t2({1, 2, 3, 4, 5, 6}, 2, 3);
    Tensor s0 = sumAxis(a, 0);
    EXPECT_EQ(s0.shape(), (Shape{3}));
    EXPECT_EQ(s0.toVector(), (std::vector<float>{5, 7, 9}));
    Tensor s1 = sumAxis(a, 1);
    EXPECT_EQ(s1.toVector(), (std::vector<float>{6, 15}));
    Tensor sk = sumAxis(a, 1, true);
    EXPECT_EQ(sk.shape(), (Shape{2, 1}));
}

TEST(Reduce, SumNegativeAxis)
{
    Tensor a = t2({1, 2, 3, 4, 5, 6}, 2, 3);
    EXPECT_EQ(sumAxis(a, -1).toVector(), (std::vector<float>{6, 15}));
}

TEST(Reduce, MeanMaxAxis)
{
    Tensor a = t2({1, 2, 3, 4, 5, 6}, 2, 3);
    EXPECT_EQ(meanAxis(a, 1).toVector(), (std::vector<float>{2, 5}));
    EXPECT_EQ(maxAxis(a, 0).toVector(), (std::vector<float>{4, 5, 6}));
}

TEST(Reduce, MiddleAxis)
{
    Tensor a = Tensor::arange(8).reshape(Shape{2, 2, 2});
    Tensor s = sumAxis(a, 1);
    EXPECT_EQ(s.shape(), (Shape{2, 2}));
    EXPECT_EQ(s.toVector(), (std::vector<float>{2, 4, 10, 12}));
}

TEST(Reduce, ArgmaxLast)
{
    Tensor a = t2({1, 9, 3, 7, 2, 5}, 2, 3);
    Tensor idx = argmaxLast(a);
    EXPECT_EQ(idx.shape(), (Shape{2}));
    EXPECT_EQ(idx.toVector(), (std::vector<float>{1, 0}));
}

TEST(Reduce, SoftmaxRowsSumToOne)
{
    Rng rng(9);
    Tensor a = Tensor::randn(Shape{4, 10}, rng, 3.0f);
    Tensor s = softmaxLast(a);
    for (int64_t r = 0; r < 4; ++r) {
        float acc = 0.0f;
        for (int64_t c = 0; c < 10; ++c) {
            acc += s.at(r, c);
            EXPECT_GE(s.at(r, c), 0.0f);
        }
        EXPECT_NEAR(acc, 1.0f, 1e-5f);
    }
}

TEST(Reduce, SoftmaxStableForLargeLogits)
{
    Tensor a = Tensor::fromVector(Shape{1, 3}, {1000.0f, 1001.0f, 1002.0f});
    Tensor s = softmaxLast(a);
    EXPECT_TRUE(s.allFinite());
    EXPECT_GT(s.at(2), s.at(1));
}

TEST(Reduce, LogSoftmaxMatchesLogOfSoftmax)
{
    Rng rng(10);
    Tensor a = Tensor::randn(Shape{3, 6}, rng);
    Tensor ls = logSoftmaxLast(a);
    Tensor ref = logF(softmaxLast(a));
    EXPECT_TRUE(allClose(ls, ref, 1e-5f));
}

TEST(ShapeOps, ConcatLastAxis)
{
    Tensor a = t2({1, 2, 3, 4}, 2, 2);
    Tensor b = t2({5, 6, 7, 8, 9, 10}, 2, 3);
    Tensor c = concat({a, b}, 1);
    EXPECT_EQ(c.shape(), (Shape{2, 5}));
    EXPECT_EQ(c.toVector(),
              (std::vector<float>{1, 2, 5, 6, 7, 3, 4, 8, 9, 10}));
}

TEST(ShapeOps, ConcatFirstAxis)
{
    Tensor a = t2({1, 2}, 1, 2);
    Tensor b = t2({3, 4}, 1, 2);
    Tensor c = concat({a, b}, 0);
    EXPECT_EQ(c.shape(), (Shape{2, 2}));
    EXPECT_EQ(c.toVector(), (std::vector<float>{1, 2, 3, 4}));
}

TEST(ShapeOps, NarrowMiddle)
{
    Tensor a = Tensor::arange(12).reshape(Shape{3, 4});
    Tensor n = narrow(a, 1, 1, 2);
    EXPECT_EQ(n.shape(), (Shape{3, 2}));
    EXPECT_EQ(n.toVector(), (std::vector<float>{1, 2, 5, 6, 9, 10}));
}

TEST(ShapeOps, ChunkRoundTrip)
{
    Tensor a = Tensor::arange(12).reshape(Shape{2, 6});
    auto parts = chunk(a, 3, 1);
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0].shape(), (Shape{2, 2}));
    Tensor back = concat(parts, 1);
    EXPECT_TRUE(allClose(back, a));
}

TEST(ShapeOps, Pad2dZeroBorder)
{
    Tensor a = Tensor::ones(Shape{1, 1, 2, 2});
    Tensor p = pad2d(a, 1);
    EXPECT_EQ(p.shape(), (Shape{1, 1, 4, 4}));
    EXPECT_EQ(sumAll(p).item(), 4.0f); // interior preserved
    EXPECT_EQ(p.at(0), 0.0f);          // corner zero
}

TEST(ShapeOps, ExpandTo)
{
    Tensor a = Tensor::fromVector(Shape{1, 3}, {1, 2, 3});
    Tensor e = expandTo(a, Shape{2, 3});
    EXPECT_EQ(e.toVector(), (std::vector<float>{1, 2, 3, 1, 2, 3}));
}

TEST(ShapeOps, EmbeddingGather)
{
    Tensor w = t2({0, 0, 1, 1, 2, 2}, 3, 2);
    Tensor ids = Tensor::fromVector(Shape{2, 2}, {2, 0, 1, 1});
    Tensor e = embedding(w, ids);
    EXPECT_EQ(e.shape(), (Shape{2, 2, 2}));
    EXPECT_EQ(e.toVector(), (std::vector<float>{2, 2, 0, 0, 1, 1, 1, 1}));
}

TEST(ShapeOps, EmbeddingBackwardAccumulatesDuplicates)
{
    Tensor ids = Tensor::fromVector(Shape{3}, {1, 1, 0});
    Tensor g = Tensor::fromVector(Shape{3, 2}, {1, 1, 2, 2, 5, 5});
    Tensor gw = embeddingBackward(g, ids, 4);
    EXPECT_EQ(gw.shape(), (Shape{4, 2}));
    EXPECT_EQ(gw.at(0, 0), 5.0f);
    EXPECT_EQ(gw.at(1, 0), 3.0f); // 1 + 2 accumulated
    EXPECT_EQ(gw.at(3, 1), 0.0f);
}

TEST(Conv, IdentityKernel)
{
    // 1x1 kernel with weight 1 reproduces the input.
    Tensor x = Tensor::arange(16).reshape(Shape{1, 1, 4, 4});
    Tensor w = Tensor::ones(Shape{1, 1, 1, 1});
    Tensor y = conv2d(x, w, Tensor(), 1, 0);
    EXPECT_TRUE(allClose(y, x));
}

TEST(Conv, KnownValues3x3)
{
    // All-ones 3x3 kernel on all-ones input counts window coverage.
    Tensor x = Tensor::ones(Shape{1, 1, 3, 3});
    Tensor w = Tensor::ones(Shape{1, 1, 3, 3});
    Tensor y = conv2d(x, w, Tensor(), 1, 1);
    EXPECT_EQ(y.shape(), (Shape{1, 1, 3, 3}));
    EXPECT_EQ(y.at(4), 9.0f); // center sees full window
    EXPECT_EQ(y.at(0), 4.0f); // corner sees 2x2
}

TEST(Conv, BiasApplied)
{
    Tensor x = Tensor::zeros(Shape{1, 1, 2, 2});
    Tensor w = Tensor::ones(Shape{3, 1, 1, 1});
    Tensor b = Tensor::fromVector(Shape{3}, {1, 2, 3});
    Tensor y = conv2d(x, w, b, 1, 0);
    EXPECT_EQ(y.shape(), (Shape{1, 3, 2, 2}));
    EXPECT_EQ(y.at(0), 1.0f);
    EXPECT_EQ(y.at(4), 2.0f);
    EXPECT_EQ(y.at(8), 3.0f);
}

TEST(Conv, StrideReducesOutput)
{
    Tensor x = Tensor::ones(Shape{1, 1, 8, 8});
    Tensor w = Tensor::ones(Shape{1, 1, 2, 2});
    Tensor y = conv2d(x, w, Tensor(), 2, 0);
    EXPECT_EQ(y.shape(), (Shape{1, 1, 4, 4}));
    EXPECT_EQ(y.at(0), 4.0f);
}

TEST(Conv, MultiChannelAccumulates)
{
    Tensor x = Tensor::ones(Shape{1, 3, 2, 2});
    Tensor w = Tensor::ones(Shape{1, 3, 1, 1});
    Tensor y = conv2d(x, w, Tensor(), 1, 0);
    EXPECT_EQ(y.at(0), 3.0f);
}

TEST(Conv, GradInputMatchesFiniteDifference)
{
    Rng rng(11);
    Tensor x = Tensor::randn(Shape{1, 2, 5, 5}, rng);
    Tensor w = Tensor::randn(Shape{3, 2, 3, 3}, rng);
    Tensor y = conv2d(x, w, Tensor(), 1, 1);
    // Loss = sum(y); dL/dx via analytic path with grad_out = 1.
    Tensor gout = Tensor::ones(y.shape());
    Tensor gx = conv2dGradInput(gout, w, x.shape(), 1, 1);

    const float eps = 1e-2f;
    for (int64_t probe : {0L, 12L, 24L, 49L}) {
        Tensor xp = x.clone();
        xp.at(probe) += eps;
        Tensor xm = x.clone();
        xm.at(probe) -= eps;
        float fd = (sumAll(conv2d(xp, w, Tensor(), 1, 1)).item() -
                    sumAll(conv2d(xm, w, Tensor(), 1, 1)).item()) /
                   (2 * eps);
        EXPECT_NEAR(gx.at(probe), fd, 0.05f);
    }
}

TEST(Conv, GradWeightMatchesFiniteDifference)
{
    Rng rng(12);
    Tensor x = Tensor::randn(Shape{2, 1, 4, 4}, rng);
    Tensor w = Tensor::randn(Shape{2, 1, 3, 3}, rng);
    Tensor y = conv2d(x, w, Tensor(), 1, 0);
    Tensor gout = Tensor::ones(y.shape());
    Tensor gw = conv2dGradWeight(gout, x, w.shape(), 1, 0);

    const float eps = 1e-2f;
    for (int64_t probe : {0L, 5L, 17L}) {
        Tensor wp = w.clone();
        wp.at(probe) += eps;
        Tensor wm = w.clone();
        wm.at(probe) -= eps;
        float fd = (sumAll(conv2d(x, wp, Tensor(), 1, 0)).item() -
                    sumAll(conv2d(x, wm, Tensor(), 1, 0)).item()) /
                   (2 * eps);
        EXPECT_NEAR(gw.at(probe), fd, 0.05f);
    }
}

TEST(Pool, MaxPoolValuesAndIndices)
{
    Tensor x = Tensor::fromVector(Shape{1, 1, 2, 4},
                                  {1, 5, 2, 3,
                                   7, 0, 9, 4});
    Tensor idx;
    Tensor y = maxpool2d(x, 2, 2, &idx);
    EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 2}));
    EXPECT_EQ(y.toVector(), (std::vector<float>{7, 9}));
    EXPECT_EQ(idx.toVector(), (std::vector<float>{4, 6}));
}

TEST(Pool, MaxPoolBackwardScattersToArgmax)
{
    Tensor x = Tensor::fromVector(Shape{1, 1, 2, 2}, {1, 2, 3, 4});
    Tensor idx;
    Tensor y = maxpool2d(x, 2, 2, &idx);
    Tensor g = Tensor::fromVector(y.shape(), {10});
    Tensor gx = maxpool2dBackward(g, idx, x.shape());
    EXPECT_EQ(gx.toVector(), (std::vector<float>{0, 0, 0, 10}));
}

/**
 * The generic pooling loop, kept as the reference for the 2x2 fast
 * paths: taps visited row by row, `>` for max (first max wins, NaN
 * never wins, an all-NaN window gives -inf), sum from 0.0f for avg.
 */
Tensor
genericPool2x2(const Tensor &x, bool max)
{
    const int64_t planes = x.size(0) * x.size(1);
    const int64_t h = x.size(2), w = x.size(3);
    const int64_t oh = h / 2, ow = w / 2;
    Tensor out(Shape{x.size(0), x.size(1), oh, ow});
    for (int64_t p = 0; p < planes; ++p) {
        const float *plane = x.data() + p * h * w;
        for (int64_t y = 0; y < oh; ++y) {
            for (int64_t xo = 0; xo < ow; ++xo) {
                float acc = max ? -std::numeric_limits<float>::infinity()
                                : 0.0f;
                for (int ky = 0; ky < 2; ++ky) {
                    for (int kx = 0; kx < 2; ++kx) {
                        const float v =
                            plane[(2 * y + ky) * w + 2 * xo + kx];
                        if (!max)
                            acc += v;
                        else if (v > acc)
                            acc = v;
                    }
                }
                out.data()[(p * oh + y) * ow + xo] = max ? acc : acc * 0.25f;
            }
        }
    }
    return out;
}

TEST(Pool, TwoByTwoFastPathMatchesGenericLoop)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    Rng rng(77);
    const Shape shapes[] = {Shape{1, 1, 2, 2},  Shape{2, 3, 5, 7},
                            Shape{1, 2, 9, 4},  Shape{3, 1, 8, 3},
                            Shape{8, 8, 32, 32}, Shape{2, 5, 33, 17}};
    for (const Shape &shape : shapes) {
        Tensor x = Tensor::randn(shape, rng);
        // Sprinkle the awkward values: NaN, -0/+0 ties, -inf.
        const float specials[] = {nan, -0.0f, 0.0f, -inf, inf};
        for (int64_t i = 0; i < x.numel(); ++i) {
            if (rng.randint(0, 3) == 0)
                x.data()[i] = specials[rng.randint(0, 4)];
        }
        for (const int threads : {1, 4}) {
            core::ScopedNumThreads scope(threads);
            EXPECT_TRUE(sameBits(maxpool2d(x, 2, 2), genericPool2x2(x, true)))
                << shape.toString() << " threads=" << threads;
            EXPECT_TRUE(sameBits(avgpool2d(x, 2, 2), genericPool2x2(x, false)))
                << shape.toString() << " threads=" << threads;
            // With indices (training) maxpool keeps the generic loop.
            Tensor idx;
            EXPECT_TRUE(sameBits(maxpool2d(x, 2, 2, &idx),
                                 genericPool2x2(x, true)));
        }
    }
    // Windows with exact answers: a -0/+0 tie keeps the first visited
    // zero, NaN never wins, an all-NaN window gives -inf, and an all
    // -0 window averages to +0.
    const Tensor x = Tensor::fromVector(
        Shape{1, 1, 2, 8}, {-0.0f, 0.0f, nan, 1.0f, nan, nan, -0.0f, -0.0f,
                            0.0f, -0.0f, nan, nan, nan, nan, -0.0f, -0.0f});
    const Tensor mx = maxpool2d(x, 2, 2);
    EXPECT_TRUE(std::signbit(mx.at(0)) && mx.at(0) == 0.0f);
    EXPECT_EQ(mx.at(1), 1.0f);
    EXPECT_EQ(mx.at(2), -inf);
    const Tensor av = avgpool2d(x, 2, 2);
    EXPECT_TRUE(av.at(3) == 0.0f && !std::signbit(av.at(3)));
    EXPECT_TRUE(sameBits(mx, genericPool2x2(x, true)));
    EXPECT_TRUE(sameBits(av, genericPool2x2(x, false)));
}

TEST(Pool, NoGradMaxPoolSkipsIndices)
{
    Rng rng(78);
    const autograd::Var x(Tensor::randn(Shape{1, 2, 6, 6}, rng), true);
    tensor::MemoryPool &pool = tensor::MemoryPool::instance();
    {
        autograd::NoGradGuard no_grad;
        const uint64_t before = pool.stats().requests;
        const autograd::Var y = autograd::maxpool2d(x, 2, 2);
        EXPECT_EQ(pool.stats().requests - before, 1u); // the output only
        EXPECT_TRUE(sameBits(y.value(), maxpool2d(x.value(), 2, 2)));
    }
    // Recording a graph still keeps the argmax for backward.
    const uint64_t before = pool.stats().requests;
    const autograd::Var y = autograd::maxpool2d(x, 2, 2);
    EXPECT_EQ(pool.stats().requests - before, 2u); // output + indices
}

TEST(Pool, AvgPool)
{
    Tensor x = Tensor::fromVector(Shape{1, 1, 2, 2}, {1, 2, 3, 4});
    Tensor y = avgpool2d(x, 2, 2);
    EXPECT_EQ(y.numel(), 1);
    EXPECT_EQ(y.at(0), 2.5f);
}

TEST(Pool, AvgPoolBackwardSpreadsEvenly)
{
    Tensor g = Tensor::fromVector(Shape{1, 1, 1, 1}, {8});
    Tensor gx = avgpool2dBackward(g, Shape{1, 1, 2, 2}, 2, 2);
    EXPECT_EQ(gx.toVector(), (std::vector<float>{2, 2, 2, 2}));
}

TEST(Pool, GlobalAvgPool)
{
    Tensor x = Tensor::arange(8).reshape(Shape{1, 2, 2, 2});
    Tensor y = globalAvgPool(x);
    EXPECT_EQ(y.shape(), (Shape{1, 2}));
    EXPECT_EQ(y.toVector(), (std::vector<float>{1.5f, 5.5f}));
}

TEST(Pool, UpsampleNearestRoundTrip)
{
    Tensor x = Tensor::fromVector(Shape{1, 1, 2, 2}, {1, 2, 3, 4});
    Tensor up = upsampleNearest2x(x);
    EXPECT_EQ(up.shape(), (Shape{1, 1, 4, 4}));
    EXPECT_EQ(up.at(0), 1.0f);
    EXPECT_EQ(up.at(1), 1.0f);
    EXPECT_EQ(up.at(5), 1.0f);
    EXPECT_EQ(up.at(15), 4.0f);
    // Backward of ones gives 4 per input cell.
    Tensor g = upsampleNearest2xBackward(Tensor::ones(up.shape()));
    EXPECT_EQ(g.toVector(), (std::vector<float>{4, 4, 4, 4}));
}

TEST(Norm, LayernormNormalizesRows)
{
    Rng rng(13);
    Tensor x = Tensor::randn(Shape{4, 16}, rng, 5.0f);
    Tensor gamma = Tensor::ones(Shape{16});
    Tensor beta = Tensor::zeros(Shape{16});
    Tensor y = layernorm(x, gamma, beta, 1e-5f);
    for (int64_t r = 0; r < 4; ++r) {
        double mean = 0.0, var = 0.0;
        for (int64_t c = 0; c < 16; ++c)
            mean += y.at(r, c);
        mean /= 16.0;
        for (int64_t c = 0; c < 16; ++c)
            var += (y.at(r, c) - mean) * (y.at(r, c) - mean);
        var /= 16.0;
        EXPECT_NEAR(mean, 0.0, 1e-4);
        EXPECT_NEAR(var, 1.0, 1e-2);
    }
}

TEST(Norm, LayernormGammaBetaApplied)
{
    Tensor x = Tensor::fromVector(Shape{1, 2}, {-1, 1});
    Tensor gamma = Tensor::fromVector(Shape{2}, {2, 2});
    Tensor beta = Tensor::fromVector(Shape{2}, {10, 10});
    Tensor y = layernorm(x, gamma, beta, 1e-5f);
    EXPECT_NEAR(y.at(0), 8.0f, 1e-2f);
    EXPECT_NEAR(y.at(1), 12.0f, 1e-2f);
}

TEST(Norm, BatchnormTrainingNormalizes)
{
    Rng rng(14);
    Tensor x = Tensor::randn(Shape{8, 3, 4, 4}, rng, 3.0f);
    Tensor gamma = Tensor::ones(Shape{3});
    Tensor beta = Tensor::zeros(Shape{3});
    Tensor rm = Tensor::zeros(Shape{3});
    Tensor rv = Tensor::ones(Shape{3});
    Tensor y = batchnorm2d(x, gamma, beta, rm, rv, true, 0.1f, 1e-5f);
    // Per-channel mean ~0, var ~1.
    for (int64_t c = 0; c < 3; ++c) {
        double mean = 0.0;
        int64_t count = 0;
        for (int64_t n = 0; n < 8; ++n) {
            for (int64_t i = 0; i < 16; ++i) {
                mean += y.at((n * 3 + c) * 16 + i);
                ++count;
            }
        }
        EXPECT_NEAR(mean / count, 0.0, 1e-4);
    }
    // Running stats moved away from init.
    EXPECT_NE(rm.at(0), 0.0f);
}

TEST(Norm, BatchnormInferenceUsesRunningStats)
{
    Tensor x = Tensor::full(Shape{1, 1, 1, 1}, 10.0f);
    Tensor gamma = Tensor::ones(Shape{1});
    Tensor beta = Tensor::zeros(Shape{1});
    Tensor rm = Tensor::full(Shape{1}, 10.0f);
    Tensor rv = Tensor::ones(Shape{1});
    Tensor y = batchnorm2d(x, gamma, beta, rm, rv, false, 0.1f, 1e-5f);
    EXPECT_NEAR(y.at(0), 0.0f, 1e-3f);
}

TEST(Events, KernelClassesPerOp)
{
    trace::RecordingSink sink;
    trace::ScopedSink guard(sink);
    Rng rng(15);
    Tensor x = Tensor::randn(Shape{1, 1, 4, 4}, rng);
    Tensor w = Tensor::randn(Shape{1, 1, 3, 3}, rng);

    sink.clear();
    conv2d(x, w, Tensor(), 1, 1);
    ASSERT_EQ(sink.kernels.size(), 1u);
    EXPECT_EQ(sink.kernels[0].kclass, trace::KernelClass::Conv);

    sink.clear();
    reluF(x);
    EXPECT_EQ(sink.kernels[0].kclass, trace::KernelClass::Relu);

    sink.clear();
    maxpool2d(x, 2, 2);
    EXPECT_EQ(sink.kernels[0].kclass, trace::KernelClass::Pooling);

    sink.clear();
    sumAll(x);
    EXPECT_EQ(sink.kernels[0].kclass, trace::KernelClass::Reduce);

    sink.clear();
    add(x, x);
    EXPECT_EQ(sink.kernels[0].kclass, trace::KernelClass::Elewise);

    sink.clear();
    transpose2d(x.reshape(Shape{4, 4}));
    EXPECT_EQ(sink.kernels[0].kclass, trace::KernelClass::Other);
}

// ------------------------------------------------------------------
// Equivalence of the optimized kernels against the naive references,
// over odd (non-tile-aligned) shapes, strides and padding.

TEST(Matmul, BlockedMatchesReferenceOddShapes)
{
    Rng rng(21);
    const struct { int64_t m, k, n; } shapes[] = {
        {1, 1, 1},   {13, 7, 17},   {6, 16, 16},  {3, 129, 65},
        {61, 33, 1}, {130, 70, 150}, {257, 31, 129},
    };
    for (const auto &s : shapes) {
        Tensor a = Tensor::randn(Shape{s.m, s.k}, rng);
        Tensor b = Tensor::randn(Shape{s.k, s.n}, rng);
        Tensor fast = matmul(a, b);
        Tensor ref = matmulReference(a, b);
        EXPECT_LE(maxAbsDiff(fast, ref), 1e-4f)
            << "m=" << s.m << " k=" << s.k << " n=" << s.n;
    }
}

TEST(Matmul, BlockedMatchesReferenceBatched)
{
    Rng rng(22);
    {
        Tensor a = Tensor::randn(Shape{3, 33, 47}, rng);
        Tensor b = Tensor::randn(Shape{3, 47, 29}, rng);
        EXPECT_LE(maxAbsDiff(matmul(a, b), matmulReference(a, b)), 1e-4f);
    }
    {
        // Shared rhs: (4, 9, 33) x (33, 17).
        Tensor a = Tensor::randn(Shape{4, 9, 33}, rng);
        Tensor b = Tensor::randn(Shape{33, 17}, rng);
        EXPECT_LE(maxAbsDiff(matmul(a, b), matmulReference(a, b)), 1e-4f);
    }
}

TEST(Matmul, TransposedVariantsMatchExplicitTranspose)
{
    Rng rng(23);
    {
        Tensor a = Tensor::randn(Shape{37, 129}, rng);
        Tensor b = Tensor::randn(Shape{53, 129}, rng); // (N, K)
        Tensor nt = matmulNT(a, b);
        Tensor ref = matmulReference(a, transpose2d(b));
        EXPECT_EQ(nt.shape(), (Shape{37, 53}));
        EXPECT_LE(maxAbsDiff(nt, ref), 1e-4f);
    }
    {
        Tensor a = Tensor::randn(Shape{129, 37}, rng); // (K, M)
        Tensor b = Tensor::randn(Shape{129, 53}, rng);
        Tensor tn = matmulTN(a, b);
        Tensor ref = matmulReference(transpose2d(a), b);
        EXPECT_EQ(tn.shape(), (Shape{37, 53}));
        EXPECT_LE(maxAbsDiff(tn, ref), 1e-4f);
    }
    {
        // Batched NT: the attention-score shape.
        Tensor a = Tensor::randn(Shape{6, 21, 33}, rng);
        Tensor b = Tensor::randn(Shape{6, 19, 33}, rng);
        Tensor nt = matmulNT(a, b);
        Tensor ref = matmul(a, swapDims(b, -2, -1));
        EXPECT_EQ(nt.shape(), (Shape{6, 21, 19}));
        EXPECT_LE(maxAbsDiff(nt, ref), 1e-4f);
    }
}

TEST(Matmul, TransposedVariantsBitwiseEqualContiguousCopy)
{
    // Seeded property: over random m,k,n in [1, 80], reading an operand
    // through strides (matmulNT / matmulTN) gives the same bits as
    // matmul on an explicitly transposed contiguous copy. NT always
    // packs B while the copy may take the row loop, so this also pins
    // the two GEMM paths to each other.
    Rng rng(41);
    for (int trial = 0; trial < 150; ++trial) {
        const int64_t m = rng.randint(1, 80);
        const int64_t k = rng.randint(1, 80);
        const int64_t n = rng.randint(1, 80);
        SCOPED_TRACE("m=" + std::to_string(m) + " k=" +
                     std::to_string(k) + " n=" + std::to_string(n));
        const Tensor a = Tensor::randn(Shape{m, k}, rng);
        const Tensor b = Tensor::randn(Shape{k, n}, rng);
        const std::vector<float> nn = matmul(a, b).toVector();
        EXPECT_EQ(matmulNT(a, transpose2d(b)).toVector(), nn);
        EXPECT_EQ(matmulTN(transpose2d(a), b).toVector(), nn);
    }
}

TEST(Layout, PermuteRunCopyMatchesElementWalk)
{
    // Random shapes and orders, including ones whose trailing axes
    // stay in place (the run-copy path), against per-element indexing.
    Rng rng(43);
    for (int trial = 0; trial < 200; ++trial) {
        const int nd = static_cast<int>(rng.randint(1, 5));
        std::vector<int64_t> dims;
        for (int d = 0; d < nd; ++d)
            dims.push_back(rng.randint(1, 6));
        std::vector<int> order(static_cast<size_t>(nd));
        for (int d = 0; d < nd; ++d)
            order[static_cast<size_t>(d)] = d;
        // Keep a random-length suffix in place; shuffle the rest.
        const int keep = static_cast<int>(rng.randint(0, nd));
        for (int d = nd - keep - 1; d > 0; --d)
            std::swap(order[static_cast<size_t>(d)],
                      order[static_cast<size_t>(rng.randint(0, d))]);

        const Shape in_shape(dims);
        const Tensor a = Tensor::randn(in_shape, rng);
        const Tensor p = permute(a, order);
        const std::vector<int64_t> in_strides = in_shape.strides();
        const std::vector<int64_t> out_strides = p.shape().strides();
        for (int64_t i = 0; i < p.numel(); ++i) {
            int64_t src = 0;
            for (int d = 0; d < nd; ++d) {
                const int64_t coord = (i / out_strides[static_cast<size_t>(d)]) %
                                      p.shape()[static_cast<size_t>(d)];
                src += coord * in_strides[static_cast<size_t>(
                                   order[static_cast<size_t>(d)])];
            }
            ASSERT_EQ(p.data()[i], a.data()[src])
                << "trial " << trial << " element " << i;
        }
    }
}

TEST(Conv, Im2colMatchesDirectOddShapes)
{
    Rng rng(24);
    const struct { int64_t n, c, h, w, oc; int k, s, p; } shapes[] = {
        {2, 3, 19, 23, 8, 5, 2, 2},  // odd spatial, stride 2, pad 2
        {1, 16, 17, 13, 12, 3, 1, 1}, // classic 3x3 same-pad
        {1, 32, 20, 20, 16, 1, 1, 0}, // 1x1: direct-GEMM fast path
        {3, 8, 15, 15, 24, 3, 2, 0},  // stride 2, no pad
        {2, 6, 9, 31, 10, 7, 3, 3},   // wide kernel, stride 3
    };
    for (const auto &s : shapes) {
        Tensor x = Tensor::randn(Shape{s.n, s.c, s.h, s.w}, rng);
        Tensor w = Tensor::randn(Shape{s.oc, s.c, s.k, s.k}, rng);
        Tensor b = Tensor::randn(Shape{s.oc}, rng);
        Tensor fast = conv2d(x, w, b, s.s, s.p);
        Tensor ref = conv2dReference(x, w, b, s.s, s.p);
        EXPECT_LE(maxAbsDiff(fast, ref), 1e-4f)
            << "c=" << s.c << " k=" << s.k << " s=" << s.s
            << " p=" << s.p;
        // And without bias.
        EXPECT_LE(maxAbsDiff(conv2d(x, w, Tensor(), s.s, s.p),
                             conv2dReference(x, w, Tensor(), s.s, s.p)),
                  1e-4f);
    }
}

// ------------------------------------------------------------------
// conv2d's implicit lowering against the explicit one it replaced: an
// im2col column matrix fed to the same blocked GEMM. Kept here as the
// reference algorithm; every output must match it bit for bit.

/** Explicit im2col of one CHW image (0 outside the input). */
template <typename T>
void
explicitIm2col(const T *xb, T *col, int64_t c, int64_t h, int64_t w, int k,
               int64_t oh, int64_t ow, int stride, int pad)
{
    for (int64_t r = 0; r < c * k * k; ++r) {
        const int64_t ci = r / (k * k);
        const int64_t ky = (r / k) % k, kx = r % k;
        for (int64_t y = 0; y < oh; ++y) {
            for (int64_t xo = 0; xo < ow; ++xo) {
                const int64_t iy = y * stride - pad + ky;
                const int64_t ix = xo * stride - pad + kx;
                col[r * oh * ow + y * ow + xo] =
                    (iy < 0 || iy >= h || ix < 0 || ix >= w)
                        ? T(0)
                        : xb[(ci * h + iy) * w + ix];
            }
        }
    }
}

/**
 * The explicit lowering: per image, bias-filled output plus one
 * blocked GEMM over the column matrix (activation in the epilogue).
 * `xdt` is the stored dtype of x's elements (f32, or the bf16/f16
 * payload of a lowered input); w may be f32 or reduced.
 */
Tensor
explicitConv(const Tensor &x, const Tensor &w, const Tensor &b, int stride,
             int pad, ActKind act)
{
    const int64_t n = x.size(0), c = x.size(1), h = x.size(2),
                  wd = x.size(3);
    const int64_t oc = w.size(0);
    const int k = static_cast<int>(w.size(2));
    const int64_t oh = (h + 2 * pad - k) / stride + 1;
    const int64_t ow = (wd + 2 * pad - k) / stride + 1;
    const int64_t kdim = c * k * k, ohw = oh * ow;
    Tensor out(Shape{n, oc, oh, ow});
    const DType xdt = x.dtype();
    std::vector<float> colf(xdt == DType::F32 ? kdim * ohw : 0);
    std::vector<uint16_t> col16(xdt == DType::F32 ? 0 : kdim * ohw);
    for (int64_t ni = 0; ni < n; ++ni) {
        detail::DtOperand cols{nullptr, ohw, 1, xdt, 1.0f};
        if (xdt == DType::F32) {
            explicitIm2col(x.data() + ni * c * h * wd, colf.data(), c, h, wd,
                           k, oh, ow, stride, pad);
            cols.p = colf.data();
        } else {
            explicitIm2col(x.u16Data() + ni * c * h * wd, col16.data(), c, h,
                           wd, k, oh, ow, stride, pad);
            cols.p = col16.data();
        }
        float *ob = out.data() + ni * oc * ohw;
        for (int64_t o = 0; o < oc; ++o)
            std::fill(ob + o * ohw, ob + (o + 1) * ohw,
                      b.defined() ? b.data()[o] : 0.0f);
        const detail::DtOperand wop{w.rawData(), kdim, 1, w.dtype(), 1.0f};
        const detail::Epilogue epi{nullptr, act};
        detail::gemmBlockedDt(wop, cols, ob, oc, kdim, ohw,
                              act == ActKind::None ? nullptr : &epi);
    }
    return out;
}

TEST(Conv, ImplicitLoweringBitwiseEqualsExplicitIm2col)
{
    struct Geometry
    {
        int64_t n, c, h, w, oc;
        int k, s, p;
    };
    // Pinned corners first: a KC split (K = 576 > 256), ow < 16 with
    // oh*ow not a multiple of 16, 1x1 stride 2, a 1-pixel input, the
    // medical-seg / transfuser shapes, and batches of 4+ images, which
    // at 4 threads run one image per pool worker.
    std::vector<Geometry> geoms = {
        {1, 64, 10, 10, 8, 3, 1, 1},  {2, 30, 7, 9, 5, 3, 1, 1},
        {2, 16, 13, 11, 12, 1, 2, 0}, {1, 3, 1, 1, 4, 1, 1, 0},
        {3, 24, 32, 32, 8, 3, 1, 1},  {2, 8, 32, 32, 16, 3, 2, 1},
        {1, 9, 6, 40, 40, 7, 3, 3},   {2, 5, 40, 3, 7, 3, 3, 1},
        {5, 12, 17, 19, 10, 3, 1, 1}, {4, 8, 16, 16, 16, 5, 2, 2},
    };
    Rng rng(2024);
    while (geoms.size() < 160) {
        Geometry g;
        g.n = rng.randint(1, 3);
        g.c = rng.randint(1, 64);
        g.oc = rng.randint(1, 40);
        g.k = 2 * static_cast<int>(rng.randint(0, 3)) + 1;
        g.s = static_cast<int>(rng.randint(1, 3));
        g.p = static_cast<int>(rng.randint(0, g.k / 2));
        g.h = rng.randint(1, 40);
        g.w = rng.randint(1, 40);
        if (g.h + 2 * g.p < g.k || g.w + 2 * g.p < g.k)
            continue; // the window does not fit
        const int64_t oh = (g.h + 2 * g.p - g.k) / g.s + 1;
        const int64_t ow = (g.w + 2 * g.p - g.k) / g.s + 1;
        if (g.n * g.oc * oh * ow * g.c * g.k * g.k > (int64_t{1} << 24))
            continue; // keep the sweep fast
        geoms.push_back(g);
    }

    const ActKind acts[] = {ActKind::None, ActKind::Relu, ActKind::Gelu};
    int kc_split = 0, narrow = 0, ragged = 0, one_by_one_s2 = 0;
    for (size_t gi = 0; gi < geoms.size(); ++gi) {
        const Geometry &g = geoms[gi];
        const int64_t oh = (g.h + 2 * g.p - g.k) / g.s + 1;
        const int64_t ow = (g.w + 2 * g.p - g.k) / g.s + 1;
        kc_split += g.c * g.k * g.k > 256;
        narrow += ow < 16;
        ragged += (oh * ow) % 16 != 0;
        one_by_one_s2 += g.k == 1 && g.s == 2;

        const Tensor x = Tensor::randn(Shape{g.n, g.c, g.h, g.w}, rng);
        const Tensor w = Tensor::randn(Shape{g.oc, g.c, g.k, g.k}, rng);
        const Tensor b = gi % 2 ? Tensor::randn(Shape{g.oc}, rng) : Tensor();
        const ActKind act = acts[gi % 3];
        const Tensor ref = explicitConv(x, w, b, g.s, g.p, act);
        for (const int threads : {1, 4}) {
            core::ScopedNumThreads scope(threads);
            EXPECT_TRUE(sameBits(conv2dAct(x, w, b, g.s, g.p, act,
                                           ConvAlgo::Im2col),
                                 ref))
                << "geometry " << gi << ": n=" << g.n << " c=" << g.c
                << " h=" << g.h << " w=" << g.w << " oc=" << g.oc
                << " k=" << g.k << " s=" << g.s << " p=" << g.p
                << " threads=" << threads;
        }
        // The reduced-precision conv reads the same implicit view: a
        // bf16 or f16 weight against a lowered or an f32 input.
        if (gi % 4 == 0) {
            const DType dt = gi % 8 ? DType::F16 : DType::BF16;
            const Tensor wq = castTo(w, dt);
            EXPECT_TRUE(sameBits(
                conv2dActDt(x, wq, b, g.s, g.p, act, /*cast_input=*/true),
                explicitConv(castTo(x, dt), wq, b, g.s, g.p, act)))
                << "reduced geometry " << gi;
            EXPECT_TRUE(sameBits(
                conv2dActDt(x, wq, b, g.s, g.p, act, /*cast_input=*/false),
                explicitConv(x, wq, b, g.s, g.p, act)))
                << "weights-only geometry " << gi;
        }
    }
    EXPECT_GT(kc_split, 0);
    EXPECT_GT(narrow, 0);
    EXPECT_GT(ragged, 0);
    EXPECT_GT(one_by_one_s2, 0);
}

// ------------------------------------------------------------------
// Results must be bitwise identical for any thread count (the trace /
// sim layers and the paper figures depend on runs being reproducible).

TEST(Parallel, KernelsDeterministicAcrossThreadCounts)
{
    Rng rng(25);
    Tensor a = Tensor::randn(Shape{67, 129}, rng);
    Tensor b = Tensor::randn(Shape{129, 71}, rng);
    Tensor x = Tensor::randn(Shape{2, 9, 21, 21}, rng);
    Tensor w = Tensor::randn(Shape{12, 9, 3, 3}, rng);
    Tensor gamma = Tensor::ones(Shape{129});
    Tensor beta = Tensor::zeros(Shape{129});

    Tensor mm1, conv1, ln1, sm1, add1;
    {
        core::ScopedNumThreads serial(1);
        mm1 = matmul(a, b);
        conv1 = conv2d(x, w, Tensor(), 1, 1);
        ln1 = layernorm(a, gamma, beta, 1e-5f);
        sm1 = softmaxLast(a);
        add1 = add(a, a);
    }
    {
        core::ScopedNumThreads parallel(4);
        EXPECT_EQ(maxAbsDiff(matmul(a, b), mm1), 0.0f);
        EXPECT_EQ(maxAbsDiff(conv2d(x, w, Tensor(), 1, 1), conv1), 0.0f);
        EXPECT_EQ(maxAbsDiff(layernorm(a, gamma, beta, 1e-5f), ln1),
                  0.0f);
        EXPECT_EQ(maxAbsDiff(softmaxLast(a), sm1), 0.0f);
        EXPECT_EQ(maxAbsDiff(add(a, a), add1), 0.0f);
    }
}

TEST(Helpers, MaxAbsDiffAndAllClose)
{
    Tensor a = Tensor::fromVector(Shape{2}, {1.0f, 2.0f});
    Tensor b = Tensor::fromVector(Shape{2}, {1.0f, 2.5f});
    EXPECT_FLOAT_EQ(maxAbsDiff(a, b), 0.5f);
    EXPECT_TRUE(allClose(a, b, 0.5f));
    EXPECT_FALSE(allClose(a, b, 0.4f));
}

} // namespace
} // namespace tensor
} // namespace mmbench
