#include "nn/linear.hpp"

#include <stdexcept>

#include "tensor/tensor_ops.hpp"

namespace ge::nn {

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng,
               bool with_bias)
    : Module("Linear"),
      in_(in_features),
      out_(out_features),
      with_bias_(with_bias),
      weight_("weight", rng.kaiming_normal({out_features, in_features},
                                           in_features)),
      bias_("bias", Tensor({out_features})) {
  if (in_features <= 0 || out_features <= 0) {
    throw std::invalid_argument("Linear: feature counts must be positive");
  }
}

Tensor Linear::forward(const Tensor& input) {
  if (input.size(-1) != in_) {
    throw std::invalid_argument("Linear: expected last dim " +
                                std::to_string(in_) + ", got shape " +
                                shape_to_string(input.shape()));
  }
  input_shape_ = input.shape();
  const int64_t rows = input.numel() / in_;
  Tensor x2d = input.reshape({rows, in_});
  Tensor y = ops::matmul_bt(x2d, weight_.value);
  if (with_bias_) {
    float* py = y.data();
    const float* pb = bias_.value.cdata();
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t c = 0; c < out_; ++c) py[r * out_ + c] += pb[c];
    }
  }
  if (is_training()) cached_input_ = std::move(x2d);
  Shape out_shape = input_shape_;
  out_shape.back() = out_;
  return y.reshape(std::move(out_shape));
}

Tensor Linear::backward(const Tensor& grad_out) {
  if (cached_input_.empty()) {
    throw std::logic_error("Linear::backward before forward (train mode)");
  }
  const int64_t rows = cached_input_.size(0);
  Tensor g2d = grad_out.reshape({rows, out_});
  // dW += g^T x ; db += column-sum(g) ; dx = g W
  Tensor gw(weight_.value.shape());
  ops::gemm(ConstTensorView(g2d).transposed(), ConstTensorView(cached_input_),
            gw.data(), in_);
  ops::add_inplace(weight_.grad, gw);
  if (with_bias_) {
    float* pgb = bias_.grad.data();
    const float* pg = g2d.cdata();
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t c = 0; c < out_; ++c) pgb[c] += pg[r * out_ + c];
    }
  }
  Tensor gx = ops::matmul(g2d, weight_.value);
  Shape in_shape = input_shape_;
  return gx.reshape(std::move(in_shape));
}

std::vector<Parameter*> Linear::local_parameters() {
  if (with_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace ge::nn
