// Kernel correctness: the GEMM vs brute-force references, im2col /
// col2im adjointness, pooling, softmax properties, reductions.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "gemm_paths.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor_ops.hpp"

namespace ge {
namespace {

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const int64_t M = a.size(0), K = a.size(1), N = b.size(1);
  Tensor out({M, N});
  for (int64_t i = 0; i < M; ++i) {
    for (int64_t j = 0; j < N; ++j) {
      double acc = 0.0;
      for (int64_t k = 0; k < K; ++k) acc += double(a[i * K + k]) * b[k * N + j];
      out[i * N + j] = static_cast<float>(acc);
    }
  }
  return out;
}

/// a * s elementwise (test-side helper).
Tensor scaled(const Tensor& a, float s) {
  Tensor out = a;
  ops::mul_scalar_inplace(out, s);
  return out;
}

/// Dense row-major transpose of a rank-2 tensor.
Tensor transposed_copy(const Tensor& a) {
  return ConstTensorView(a).transposed().materialize();
}

TEST(Elementwise, Add) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {4, 5, 6});
  EXPECT_TRUE(ops::add(a, b).equals(Tensor({3}, {5, 7, 9})));
}

TEST(Elementwise, ShapeMismatchThrows) {
  EXPECT_THROW(ops::add(Tensor({2}), Tensor({3})), std::invalid_argument);
  EXPECT_THROW(ops::add(Tensor({2, 1}), Tensor({2})), std::invalid_argument);
}

TEST(Elementwise, InplaceVariants) {
  Tensor a({2}, {1, 2});
  ops::add_inplace(a, Tensor({2}, {10, 20}));
  EXPECT_TRUE(a.equals(Tensor({2}, {11, 22})));
  ops::mul_scalar_inplace(a, 0.5f);
  EXPECT_TRUE(a.equals(Tensor({2}, {5.5f, 11})));
}

TEST(Reductions, MinMaxMaxAbs) {
  Tensor a({4}, {1, -2, 3, 6});
  EXPECT_EQ(ops::min_value(a), -2.0f);
  EXPECT_EQ(ops::max_value(a), 6.0f);
  EXPECT_EQ(ops::max_abs(a), 6.0f);
}

TEST(Reductions, MaxAbsSkipsNanAcrossChunks) {
  // Several reduction chunks; the largest magnitude sits in the last one
  // and NaNs (skipped, as by the serial scan) in the others.
  Tensor a = Tensor::zeros({100003});
  a[5] = std::numeric_limits<float>::quiet_NaN();
  a[40000] = -7.5f;
  a[70000] = std::numeric_limits<float>::quiet_NaN();
  a[100002] = 9.25f;
  EXPECT_EQ(ops::max_abs(a), 9.25f);
  a[100002] = 0.0f;
  EXPECT_EQ(ops::max_abs(a), 7.5f);
  Tensor nan_first({3}, {std::numeric_limits<float>::quiet_NaN(), -2, 1});
  EXPECT_EQ(ops::max_abs(nan_first), 2.0f);
}

TEST(Reductions, EmptyTensorThrows) {
  Tensor empty({0});
  EXPECT_THROW(ops::min_value(empty), std::invalid_argument);
}

TEST(Reductions, ArgmaxRows) {
  Tensor a({2, 3}, {1, 5, 2, 9, 0, 3});
  const auto idx = ops::argmax_rows(a);
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(Matmul, MatchesNaiveReference) {
  Rng rng(3);
  Tensor a = rng.normal_tensor({7, 5});
  Tensor b = rng.normal_tensor({5, 9});
  EXPECT_TRUE(ops::matmul(a, b).allclose(naive_matmul(a, b), 1e-4f));
}

TEST(Matmul, ShapeErrors) {
  EXPECT_THROW(ops::matmul(Tensor({2, 3}), Tensor({4, 2})),
               std::invalid_argument);
  EXPECT_THROW(ops::matmul_bt(Tensor({2, 3}), Tensor({4, 2})),
               std::invalid_argument);
  EXPECT_THROW(ops::matmul(Tensor({2}), Tensor({2, 2})),
               std::invalid_argument);
  float c[4];
  const Tensor a({2, 3}), b({3, 2});
  EXPECT_THROW(ops::gemm(ConstTensorView(a), ConstTensorView(b), c, 1),
               std::invalid_argument);  // ldc below N
}

/// The four operand layouts the GEMM sees in the layers: dense, A stored
/// transposed, B stored transposed, and head slices (row stride above the
/// column count, non-zero offset, as attention reads q/k/v).
enum class Layout { kDense, kATransposed, kBTransposed, kHeadSlice };

/// A (rows, cols) view of the logical matrix `m` (the view pins its
/// storage). `transposed` stores m^T and views it back; `slice` embeds m
/// at column offset 2 of a wider matrix.
ConstTensorView layout_operand(const Tensor& m, bool transposed, bool slice) {
  const int64_t rows = m.size(0), cols = m.size(1);
  if (transposed) return ConstTensorView(transposed_copy(m)).transposed();
  if (slice) {
    const int64_t wide = cols + 5;
    Tensor t = Tensor::full({rows, wide}, 99.0f);
    for (int64_t i = 0; i < rows; ++i) {
      for (int64_t j = 0; j < cols; ++j) t[i * wide + 2 + j] = m[i * cols + j];
    }
    return ConstTensorView(t, 2, {rows, cols}, {wide, 1});
  }
  return ConstTensorView(m);
}

/// Runs the GEMM on `a` x `b` laid out as `layout`, into a C of row stride
/// `ldc` pre-filled with a sentinel; returns C.
Tensor run_gemm(const Tensor& a, const Tensor& b, Layout layout,
                int64_t ldc) {
  Tensor c = Tensor::full({a.size(0), ldc}, -7.0f);
  ops::gemm(layout_operand(a, layout == Layout::kATransposed,
                           layout == Layout::kHeadSlice),
            layout_operand(b, layout == Layout::kBTransposed,
                           layout == Layout::kHeadSlice),
            c.data(), ldc);
  return c;
}

constexpr Layout kLayouts[] = {Layout::kDense, Layout::kATransposed,
                               Layout::kBTransposed, Layout::kHeadSlice};

TEST(Gemm, MatchesAscendingKReferenceBitwise) {
  // (M, K, N): a 1 in each position, N = 7 and 9 around the 8-wide B
  // panel, M = 3 and 5 around the 4-row register tile, K = 0 (all +0.0),
  // and one product large enough to split into several parallel chunks.
  const int64_t shapes[][3] = {{1, 1, 1},    {1, 5, 9},   {6, 1, 7},
                               {5, 9, 1},    {3, 13, 8},  {9, 13, 11},
                               {17, 12, 17}, {33, 20, 9}, {4, 0, 3},
                               {130, 40, 70}};
  Rng rng(7);
  for (const auto& s : shapes) {
    const int64_t M = s[0], K = s[1], N = s[2];
    const Tensor a = rng.normal_tensor({M, K});
    const Tensor b = rng.normal_tensor({K, N});
    // One FP32 accumulator from +0.0, ascending k, no skipped terms.
    std::vector<float> ref(static_cast<size_t>(M * N));
    for (int64_t i = 0; i < M; ++i) {
      for (int64_t j = 0; j < N; ++j) {
        float acc = 0.0f;
        for (int64_t k = 0; k < K; ++k) acc += a[i * K + k] * b[k * N + j];
        ref[static_cast<size_t>(i * N + j)] = acc;
      }
    }
    for (const Layout layout : kLayouts) {
      for (const int64_t ldc : {N, N + 3}) {
        const Tensor c = run_gemm(a, b, layout, ldc);
        for (int64_t i = 0; i < M; ++i) {
          EXPECT_EQ(std::memcmp(c.cdata() + i * ldc, ref.data() + i * N,
                                sizeof(float) * static_cast<size_t>(N)),
                    0)
              << "M=" << M << " K=" << K << " N=" << N << " row " << i
              << " layout " << static_cast<int>(layout) << " ldc " << ldc;
          for (int64_t j = N; j < ldc; ++j) {
            EXPECT_EQ(c[i * ldc + j], -7.0f) << "wrote past N";
          }
        }
      }
    }
    // The dense entry points run the same kernel.
    const Tensor mm = ops::matmul(a, b);
    const Tensor bt = ops::matmul_bt(a, transposed_copy(b));
    EXPECT_EQ(std::memcmp(mm.cdata(), ref.data(), sizeof(float) * ref.size()),
              0);
    EXPECT_EQ(std::memcmp(bt.cdata(), ref.data(), sizeof(float) * ref.size()),
              0);
  }
}

TEST(Gemm, ZeroTimesInfIsNaN) {
  // [0, 1] . [Inf, 2]^T = 0*Inf + 1*2 = NaN on IEEE hardware; no operand
  // layout may skip the zero term.
  const Tensor a({1, 2}, {0.0f, 1.0f});
  const Tensor b({2, 1}, {std::numeric_limits<float>::infinity(), 2.0f});
  for (const Layout layout : kLayouts) {
    EXPECT_TRUE(std::isnan(run_gemm(a, b, layout, 1)[0]))
        << "layout " << static_cast<int>(layout);
  }
  EXPECT_TRUE(std::isnan(ops::matmul(a, b)[0]));
  EXPECT_TRUE(std::isnan(ops::matmul_bt(a, transposed_copy(b))[0]));
}

/// The operand contents the cross-path test feeds the GEMM. Each special
/// case is built so every output's result is defined bit for bit by IEEE
/// arithmetic alone: an output meets at most one NaN payload (which NaN an
/// FP unit keeps when both operands are NaNs is the one thing a compiler
/// may legally change by swapping the operands of a commutative multiply or
/// add), or only the one default NaN that 0 x Inf and Inf - Inf produce.
enum class Fill {
  kNormal,       // N(0, 1)
  kNanInA,       // one NaN (distinct payload, sign, quiet or signalling)
                 // in every third row of A; B finite, with -0 and denormals
  kNanInB,       // the same in every third column of B; A finite
  kInfAndZeros,  // +-Inf, +-0, denormals and normals on both sides
  kDenormals,    // denormals, -0 and values whose products underflow
};

constexpr Fill kFills[] = {Fill::kNormal, Fill::kNanInA, Fill::kNanInB,
                           Fill::kInfAndZeros, Fill::kDenormals};

float float_from_bits(uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof f);
  return f;
}

/// A NaN with a payload unique to `id`: sign from bit 0, quiet or
/// signalling from bit 1 (a signalling NaN comes out quieted, with the same
/// payload).
float payload_nan(int64_t id) {
  const uint32_t sign = (id & 1) ? 0x80000000u : 0u;
  const uint32_t quiet = (id & 2) ? 0x00400000u : 0u;
  const uint32_t payload = 0x1000u + static_cast<uint32_t>(id) * 0x111u;
  return float_from_bits(sign | 0x7f800000u | quiet | payload);
}

/// A value drawn for `fill` from a mix of specials (no NaN).
float special_value(Rng& rng, Fill fill) {
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  switch (fill == Fill::kInfAndZeros ? rng.randint(0, 5)
                                     : rng.randint(2, 5)) {
    case 0:
      return rng.randint(0, 1) ? inf : -inf;
    case 1:
      return rng.randint(0, 1) ? 0.0f : -0.0f;
    case 2:
      return -0.0f;
    case 3:
      return static_cast<float>(rng.randint(1, 1000)) * denorm *
             (rng.randint(0, 1) ? 1.0f : -1.0f);
    case 4:  // products with a denormal or another tiny value underflow
      return rng.normal() * 1e-20f;
    default:
      return rng.normal();
  }
}

/// The logical A (M, K) and B (K, N) of one cross-path case.
std::pair<Tensor, Tensor> fill_operands(int64_t M, int64_t K, int64_t N,
                                        Fill fill, Rng& rng) {
  Tensor a = rng.normal_tensor({M, K});
  Tensor b = rng.normal_tensor({K, N});
  if (fill == Fill::kNormal) return {a, b};
  if (fill != Fill::kNanInA) {
    for (float& v : a.flat()) v = special_value(rng, fill);
  }
  if (fill != Fill::kNanInB) {
    for (float& v : b.flat()) v = special_value(rng, fill);
  }
  if (fill == Fill::kNanInA && K > 0) {
    for (int64_t i = 0; i < M; i += 3) a[i * K + (i * 7) % K] = payload_nan(i);
  }
  if (fill == Fill::kNanInB && K > 0) {
    for (int64_t j = 0; j < N; j += 3) b[(j * 5) % K * N + j] = payload_nan(j);
  }
  return {a, b};
}

TEST(Gemm, EveryDispatchedPathMatchesPortableBitwise) {
  // (M, K, N) around every path's tile: M mod 8 != 0 (4- and 8-row tiles),
  // N mod 16 and N mod 8 != 0 (8- and 16-wide panels), K = 0 and K = 1,
  // and one product large enough to split into parallel row blocks.
  const int64_t shapes[][3] = {{1, 1, 1},    {7, 1, 9},    {9, 0, 17},
                               {13, 5, 15},  {8, 7, 16},   {16, 12, 8},
                               {17, 33, 23}, {35, 40, 47}, {130, 64, 70}};
  Rng rng(11);
  for (const auto& s : shapes) {
    const int64_t M = s[0], K = s[1], N = s[2];
    for (const Fill fill : kFills) {
      const auto [a, b] = fill_operands(M, K, N, fill, rng);
      // The definition: one FP32 accumulator from +0.0, ascending k.
      std::vector<float> ref(static_cast<size_t>(M * N));
      for (int64_t i = 0; i < M; ++i) {
        for (int64_t j = 0; j < N; ++j) {
          float acc = 0.0f;
          for (int64_t k = 0; k < K; ++k) acc += a[i * K + k] * b[k * N + j];
          ref[static_cast<size_t>(i * N + j)] = acc;
        }
      }
      for (const Layout layout : kLayouts) {
        for (const int64_t ldc : {N, N + 3}) {
          test::GemmPathGuard guard;
          ops::testing::force_gemm_path(ops::testing::GemmPath::kPortable);
          const Tensor portable = run_gemm(a, b, layout, ldc);
          for (int64_t i = 0; i < M; ++i) {
            ASSERT_EQ(std::memcmp(portable.cdata() + i * ldc,
                                  ref.data() + i * N,
                                  sizeof(float) * static_cast<size_t>(N)),
                      0)
                << "portable vs definition: M=" << M << " K=" << K
                << " N=" << N << " fill " << static_cast<int>(fill)
                << " layout " << static_cast<int>(layout) << " row " << i;
          }
          test::for_each_gemm_path([&] {
            const Tensor c = run_gemm(a, b, layout, ldc);
            EXPECT_EQ(std::memcmp(c.cdata(), portable.cdata(),
                                  sizeof(float) * static_cast<size_t>(M * ldc)),
                      0)
                << "M=" << M << " K=" << K << " N=" << N << " fill "
                << static_cast<int>(fill) << " layout "
                << static_cast<int>(layout) << " ldc " << ldc;
          });
        }
      }
    }
  }
}

TEST(Gemm, ForcingAnUnsupportedPathThrows) {
  for (const auto path : ops::testing::kGemmPaths) {
    if (ops::testing::gemm_path_supported(path)) continue;
    EXPECT_THROW(ops::testing::force_gemm_path(path), std::invalid_argument);
  }
  // The host's widest path is the one gemm runs by default.
  ops::testing::GemmPath widest = ops::testing::GemmPath::kPortable;
  for (const auto path : ops::testing::kGemmPaths) {
    if (ops::testing::gemm_path_supported(path)) widest = path;
  }
  EXPECT_EQ(ops::testing::gemm_path(), widest);
}

TEST(Softmax, RowsSumToOne) {
  Rng rng(7);
  Tensor a = rng.normal_tensor({5, 11}, 0.0f, 3.0f);
  Tensor s = ops::softmax_lastdim(a);
  for (int64_t r = 0; r < 5; ++r) {
    double sum = 0.0;
    for (int64_t c = 0; c < 11; ++c) sum += s[r * 11 + c];
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Softmax, StableUnderLargeInputs) {
  Tensor a({1, 3}, {1000.0f, 1001.0f, 999.0f});
  Tensor s = ops::softmax_lastdim(a);
  for (int64_t i = 0; i < 3; ++i) EXPECT_TRUE(std::isfinite(s[i]));
  EXPECT_GT(s[1], s[0]);
}

TEST(Softmax, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(8);
  Tensor a = rng.normal_tensor({3, 6});
  Tensor ls = ops::log_softmax_lastdim(a);
  Tensor s = ops::softmax_lastdim(a);
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_NEAR(ls[i], std::log(s[i]), 1e-5f);
  }
}

TEST(Conv, SpecOutputGeometry) {
  ops::Conv2dSpec s;
  s.kernel_h = s.kernel_w = 3;
  s.stride_h = s.stride_w = 2;
  s.pad_h = s.pad_w = 1;
  EXPECT_EQ(s.out_h(16), 8);
  EXPECT_EQ(s.out_w(7), 4);
}

TEST(Conv, Im2colIdentityKernel) {
  // 1x1 kernel, stride 1: im2col is a reordering of the input itself.
  Tensor x({1, 2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  ops::Conv2dSpec s;
  s.kernel_h = s.kernel_w = 1;
  Tensor cols = ops::im2col(x, s);
  ASSERT_EQ(cols.size(0), 4);
  ASSERT_EQ(cols.size(1), 2);
  // row (oh=0, ow=0) holds channel values at that pixel: 1 and 5
  EXPECT_EQ(cols.at({0, 0}), 1.0f);
  EXPECT_EQ(cols.at({0, 1}), 5.0f);
  EXPECT_EQ(cols.at({3, 0}), 4.0f);
  EXPECT_EQ(cols.at({3, 1}), 8.0f);
}

TEST(Conv, Im2colZeroPadsBorders) {
  Tensor x = Tensor::ones({1, 1, 2, 2});
  ops::Conv2dSpec s;
  s.kernel_h = s.kernel_w = 3;
  s.pad_h = s.pad_w = 1;
  Tensor cols = ops::im2col(x, s);
  // top-left output: the 3x3 window has 5 zero (padded) and 4 one entries
  float sum = 0.0f;
  for (int64_t j = 0; j < 9; ++j) sum += cols.at({0, j});
  EXPECT_EQ(sum, 4.0f);
}

TEST(Conv, Col2imIsAdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
  // property that makes Conv2d::backward correct.
  Rng rng(9);
  Tensor x = rng.normal_tensor({2, 3, 6, 6});
  ops::Conv2dSpec s;
  s.kernel_h = s.kernel_w = 3;
  s.stride_h = s.stride_w = 2;
  s.pad_h = s.pad_w = 1;
  Tensor cx = ops::im2col(x, s);
  Tensor y = rng.normal_tensor(cx.shape());
  Tensor cty = ops::col2im(y, x.shape(), s);
  double lhs = 0.0, rhs = 0.0;
  for (int64_t i = 0; i < cx.numel(); ++i) lhs += double(cx[i]) * y[i];
  for (int64_t i = 0; i < x.numel(); ++i) rhs += double(x[i]) * cty[i];
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

TEST(Conv, Im2colRejectsBadInputs) {
  ops::Conv2dSpec s;
  EXPECT_THROW(ops::im2col(Tensor({2, 3}), s), std::invalid_argument);
  s.kernel_h = s.kernel_w = 5;
  EXPECT_THROW(ops::im2col(Tensor({1, 1, 3, 3}), s), std::invalid_argument);
}

TEST(Conv, Im2colIsLinear) {
  // im2col(a x + b y) == a im2col(x) + b im2col(y): the property that
  // makes conv-as-GEMM legal.
  Rng rng(40);
  Tensor x = rng.normal_tensor({1, 2, 5, 5});
  Tensor y = rng.normal_tensor({1, 2, 5, 5});
  ops::Conv2dSpec s;
  s.kernel_h = s.kernel_w = 3;
  s.pad_h = s.pad_w = 1;
  Tensor lhs =
      ops::im2col(ops::add(scaled(x, 2.0f), scaled(y, -3.0f)), s);
  Tensor rhs = ops::add(scaled(ops::im2col(x, s), 2.0f),
                        scaled(ops::im2col(y, s), -3.0f));
  EXPECT_TRUE(lhs.allclose(rhs, 1e-4f));
}

TEST(Matmul, DistributesOverAddition) {
  Rng rng(41);
  Tensor a = rng.normal_tensor({4, 6});
  Tensor b = rng.normal_tensor({6, 5});
  Tensor c = rng.normal_tensor({6, 5});
  Tensor lhs = ops::matmul(a, ops::add(b, c));
  Tensor rhs = ops::add(ops::matmul(a, b), ops::matmul(a, c));
  EXPECT_TRUE(lhs.allclose(rhs, 1e-3f));
}

TEST(Softmax, InvariantToRowShift) {
  Rng rng(43);
  Tensor a = rng.normal_tensor({3, 8});
  Tensor shifted = ops::add(a, Tensor::full(a.shape(), 42.0f));
  EXPECT_TRUE(ops::softmax_lastdim(a).allclose(
      ops::softmax_lastdim(shifted), 1e-5f));
}

TEST(Pooling, MaxPoolPicksWindowMax) {
  Tensor x({1, 1, 2, 4}, {1, 5, 2, 0, 3, 4, 8, 1});
  ops::Conv2dSpec s;
  s.kernel_h = s.kernel_w = 2;
  s.stride_h = s.stride_w = 2;
  Tensor y = ops::maxpool2d(x, s);
  ASSERT_EQ(y.numel(), 2);
  EXPECT_EQ(y[0], 5.0f);
  EXPECT_EQ(y[1], 8.0f);
}

TEST(Pooling, MaxPoolArgmaxIndexesInput) {
  Tensor x({1, 1, 2, 2}, {1, 9, 3, 2});
  ops::Conv2dSpec s;
  s.kernel_h = s.kernel_w = 2;
  s.stride_h = s.stride_w = 2;
  std::vector<int64_t> argmax;
  Tensor y = ops::maxpool2d(x, s, &argmax);
  ASSERT_EQ(argmax.size(), 1u);
  EXPECT_EQ(argmax[0], 1);
}

TEST(Pooling, AvgPoolAveragesWindow) {
  Tensor x({1, 1, 2, 2}, {1, 2, 3, 6});
  ops::Conv2dSpec s;
  s.kernel_h = s.kernel_w = 2;
  s.stride_h = s.stride_w = 2;
  EXPECT_NEAR(ops::avgpool2d(x, s)[0], 3.0f, 1e-6f);
}

TEST(Pooling, GlobalAvgPoolPerChannel) {
  Tensor x({1, 2, 2, 2}, {1, 1, 1, 1, 2, 2, 2, 10});
  Tensor y = ops::global_avgpool(x);
  ASSERT_EQ(y.numel(), 2);
  EXPECT_NEAR(y[0], 1.0f, 1e-6f);
  EXPECT_NEAR(y[1], 4.0f, 1e-6f);
}

}  // namespace
}  // namespace ge
