#include "nn/conv.hpp"

#include <stdexcept>

#include "parallel/thread_pool.hpp"
#include "tensor/tensor_view.hpp"

namespace ge::nn {

namespace {
ops::Conv2dSpec make_spec(int64_t kernel, int64_t stride, int64_t padding) {
  ops::Conv2dSpec s;
  s.kernel_h = s.kernel_w = kernel;
  s.stride_h = s.stride_w = stride;
  s.pad_h = s.pad_w = padding;
  return s;
}
}  // namespace

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
               int64_t stride, int64_t padding, Rng& rng, bool with_bias)
    : Module("Conv2d"),
      in_c_(in_channels),
      out_c_(out_channels),
      with_bias_(with_bias),
      spec_(make_spec(kernel, stride, padding)),
      weight_("weight",
              rng.kaiming_normal({out_channels, in_channels, kernel, kernel},
                                 in_channels * kernel * kernel)),
      bias_("bias", Tensor({out_channels})) {
  if (in_channels <= 0 || out_channels <= 0 || kernel <= 0 || stride <= 0 ||
      padding < 0) {
    throw std::invalid_argument("Conv2d: invalid geometry");
  }
}

Tensor Conv2d::forward(const Tensor& input) {
  if (input.dim() != 4 || input.size(1) != in_c_) {
    throw std::invalid_argument("Conv2d: expected NCHW with C=" +
                                std::to_string(in_c_) + ", got " +
                                shape_to_string(input.shape()));
  }
  const int64_t N = input.size(0), H = input.size(2), W = input.size(3);
  const int64_t OH = spec_.out_h(H), OW = spec_.out_w(W);
  const int64_t patch = in_c_ * spec_.kernel_h * spec_.kernel_w;

  Tensor cols = ops::im2col(input, spec_);                  // (N*OH*OW, patch)
  Tensor wmat = weight_.value.reshape({out_c_, patch});     // (OC, patch)
  Tensor ymat = ops::matmul_bt(cols, wmat);                 // (N*OH*OW, OC)

  // Reorder (n, oh, ow, oc) -> NCHW.
  Tensor out({N, out_c_, OH, OW});
  const float* py = ymat.cdata();
  const float* pb = bias_.value.cdata();
  float* po = out.data();
  // Parallel over (n, oc) planes: each writes a disjoint OH*OW slice.
  parallel::parallel_for(
      0, N * out_c_, parallel::grain_for(OH * OW), [&](int64_t lo, int64_t hi) {
        for (int64_t noc = lo; noc < hi; ++noc) {
          const int64_t n = noc / out_c_;
          const int64_t oc = noc % out_c_;
          const float b = with_bias_ ? pb[oc] : 0.0f;
          float* dst = po + noc * OH * OW;
          const float* src = py + n * OH * OW * out_c_ + oc;
          for (int64_t i = 0; i < OH * OW; ++i) dst[i] = src[i * out_c_] + b;
        }
      });
  if (is_training()) {
    cached_cols_ = std::move(cols);
    cached_input_shape_ = input.shape();
  }
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  if (cached_cols_.empty()) {
    throw std::logic_error("Conv2d::backward before forward (train mode)");
  }
  const int64_t N = cached_input_shape_[0], H = cached_input_shape_[2],
                W = cached_input_shape_[3];
  const int64_t OH = spec_.out_h(H), OW = spec_.out_w(W);
  const int64_t patch = in_c_ * spec_.kernel_h * spec_.kernel_w;

  // NCHW grad -> (N*OH*OW, OC) row layout matching the forward GEMM.
  Tensor gmat({N * OH * OW, out_c_});
  const float* pg = grad_out.data();
  float* pgm = gmat.data();
  parallel::parallel_for(
      0, N * out_c_, parallel::grain_for(OH * OW), [&](int64_t lo, int64_t hi) {
        for (int64_t noc = lo; noc < hi; ++noc) {
          const int64_t n = noc / out_c_;
          const int64_t oc = noc % out_c_;
          const float* src = pg + noc * OH * OW;
          float* dst = pgm + n * OH * OW * out_c_ + oc;
          for (int64_t i = 0; i < OH * OW; ++i) dst[i * out_c_] = src[i];
        }
      });

  // dW = g^T cols ; db = column-sum(g) ; dcols = g Wmat ; dx = col2im(dcols)
  Tensor gw(weight_.value.shape());  // (OC, patch) rows
  ops::gemm(ConstTensorView(gmat).transposed(), ConstTensorView(cached_cols_),
            gw.data(), patch);
  ops::add_inplace(weight_.grad, gw);
  if (with_bias_) {
    float* pgb = bias_.grad.data();
    const int64_t rows = N * OH * OW;
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t oc = 0; oc < out_c_; ++oc) {
        pgb[oc] += pgm[r * out_c_ + oc];
      }
    }
  }
  Tensor wmat = weight_.value.reshape({out_c_, patch});
  Tensor gcols = ops::matmul(gmat, wmat);  // (N*OH*OW, patch)
  return ops::col2im(gcols, cached_input_shape_, spec_);
}

std::vector<Parameter*> Conv2d::local_parameters() {
  if (with_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace ge::nn
