// Free-function kernels over Tensor — the arithmetic substrate the NN
// framework is built from. All kernels are pure (inputs by const ref, new
// tensor out) except the explicitly `_inplace` variants used on hot paths
// and `gemm`, which writes into caller storage.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "tensor/tensor.hpp"
#include "tensor/tensor_view.hpp"

namespace ge::ops {

/// --- elementwise ----------------------------------------------------------
/// Shapes must match exactly.
Tensor add(const Tensor& a, const Tensor& b);
void add_inplace(Tensor& a, const Tensor& b);
void mul_scalar_inplace(Tensor& a, float s);

/// --- reductions -----------------------------------------------------------
float max_abs(const Tensor& a);
float min_value(const Tensor& a);
float max_value(const Tensor& a);
/// Row-wise argmax over the last dimension; returns indices, one per row.
std::vector<int64_t> argmax_rows(const Tensor& a);

/// --- linear algebra --------------------------------------------------------
/// The one FP32 GEMM: A (M,K) x B (K,N) written to c[i * ldc + j] for
/// 2-D strided views A and B (a transpose is a view with swapped strides,
/// an attention head a view with a wide row stride) and ldc >= N. Every
/// output is one FP32 accumulator that starts at +0.0 and adds
/// a[i,k] * b[k,j] in ascending k with no zero skip, so the result depends
/// only on the logical product — never on strides, tiling or threads.
/// C must not overlap A or B.
void gemm(const ConstTensorView& a, const ConstTensorView& b, float* c,
          int64_t ldc);
/// Dense (M,K) x (K,N) -> (M,N).
Tensor matmul(const Tensor& a, const Tensor& b);
/// Dense (M,K) x (N,K)^T -> (M,N): the Linear-layer product.
Tensor matmul_bt(const Tensor& a, const Tensor& b_t);

/// Test and bench hooks for the GEMM's per-ISA micro-kernels. gemm runs
/// the widest path the CPU supports, chosen once per process; every path
/// gives bitwise the same C, and these hooks let a test prove it.
namespace testing {
enum class GemmPath { kPortable, kAvx2, kAvx512f };
inline constexpr GemmPath kGemmPaths[] = {GemmPath::kPortable, GemmPath::kAvx2,
                                          GemmPath::kAvx512f};
const char* gemm_path_name(GemmPath path);
bool gemm_path_supported(GemmPath path);
/// The path gemm runs now.
GemmPath gemm_path();
/// Make every later gemm call (process-wide) run `path`; throws
/// std::invalid_argument when the CPU lacks it.
void force_gemm_path(GemmPath path);
}  // namespace testing

/// --- softmax family ---------------------------------------------------------
/// Numerically-stable softmax over the last dimension.
Tensor softmax_lastdim(const Tensor& a);
/// Numerically-stable log-softmax over the last dimension.
Tensor log_softmax_lastdim(const Tensor& a);

/// --- convolution helpers ------------------------------------------------------
/// Parameters of a 2-D convolution / pooling window.
struct Conv2dSpec {
  int64_t kernel_h = 3, kernel_w = 3;
  int64_t stride_h = 1, stride_w = 1;
  int64_t pad_h = 0, pad_w = 0;

  int64_t out_h(int64_t in_h) const {
    return (in_h + 2 * pad_h - kernel_h) / stride_h + 1;
  }
  int64_t out_w(int64_t in_w) const {
    return (in_w + 2 * pad_w - kernel_w) / stride_w + 1;
  }
};

/// Unfold an NCHW input into an im2col matrix of shape
/// (N*OH*OW, C*KH*KW); conv2d then reduces to a matmul with the
/// (C*KH*KW, OC) reshaped weight.
Tensor im2col(const Tensor& input, const Conv2dSpec& spec);
/// Fold an im2col-shaped gradient back onto the NCHW input (adjoint of
/// im2col); used by Conv2d::backward.
Tensor col2im(const Tensor& cols, const Shape& input_shape,
              const Conv2dSpec& spec);

/// --- pooling -----------------------------------------------------------------
/// Max-pool NCHW input; `argmax_out`, if non-null, receives the flat input
/// index of each pooled maximum (needed for the backward pass).
Tensor maxpool2d(const Tensor& input, const Conv2dSpec& spec,
                 std::vector<int64_t>* argmax_out = nullptr);
/// Average over each window.
Tensor avgpool2d(const Tensor& input, const Conv2dSpec& spec);
/// Global average pool: NCHW -> (N, C).
Tensor global_avgpool(const Tensor& input);

}  // namespace ge::ops
