#include "nn/activation.hpp"

#include <cmath>
#include <stdexcept>

#include "parallel/thread_pool.hpp"

namespace ge::nn {

namespace {
// Per-element activation loops run in fixed 4096-element chunks; each index
// writes only its own outputs, so results are bitwise identical at any
// thread count.
template <typename F>
void elementwise(int64_t n, F&& f) {
  parallel::parallel_for(0, n, 4096, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) f(i);
  });
}
}  // namespace

Tensor ReLU::forward(const Tensor& input) {
  Tensor out(input.shape());
  const float* pin = input.data();
  float* po = out.data();
  const int64_t n = input.numel();
  const bool cache = is_training();
  if (cache) mask_.assign(static_cast<size_t>(n), 0);
  uint8_t* mask = mask_.data();
  elementwise(n, [&](int64_t i) {
    const bool pos = pin[i] > 0.0f;
    po[i] = pos ? pin[i] : 0.0f;
    if (cache && pos) mask[i] = 1;
  });
  return out;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  if (mask_.size() != static_cast<size_t>(grad_out.numel())) {
    throw std::logic_error("ReLU::backward before training forward");
  }
  Tensor gx(grad_out.shape());
  const float* pg = grad_out.data();
  const uint8_t* mask = mask_.data();
  float* po = gx.data();
  elementwise(grad_out.numel(),
              [&](int64_t i) { po[i] = mask[i] ? pg[i] : 0.0f; });
  return gx;
}

namespace {
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)

float gelu_value(float x) {
  const float inner = kGeluC * (x + 0.044715f * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(inner));
}

float gelu_grad(float x) {
  const float x3 = x * x * x;
  const float inner = kGeluC * (x + 0.044715f * x3);
  const float t = std::tanh(inner);
  const float dinner = kGeluC * (1.0f + 3.0f * 0.044715f * x * x);
  return 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * dinner;
}
}  // namespace

Tensor GELU::forward(const Tensor& input) {
  Tensor out(input.shape());
  const float* pin = input.data();
  float* po = out.data();
  elementwise(input.numel(), [&](int64_t i) { po[i] = gelu_value(pin[i]); });
  if (is_training()) cached_input_ = input;
  return out;
}

Tensor GELU::backward(const Tensor& grad_out) {
  if (cached_input_.empty()) {
    throw std::logic_error("GELU::backward before training forward");
  }
  Tensor gx(grad_out.shape());
  const float* pg = grad_out.data();
  const float* px = cached_input_.cdata();
  float* po = gx.data();
  elementwise(grad_out.numel(),
              [&](int64_t i) { po[i] = pg[i] * gelu_grad(px[i]); });
  return gx;
}

Tensor Sigmoid::forward(const Tensor& input) {
  Tensor out(input.shape());
  const float* pin = input.data();
  float* po = out.data();
  elementwise(input.numel(), [&](int64_t i) {
    po[i] = 1.0f / (1.0f + std::exp(-pin[i]));
  });
  if (is_training()) cached_output_ = out;
  return out;
}

Tensor Sigmoid::backward(const Tensor& grad_out) {
  if (cached_output_.empty()) {
    throw std::logic_error("Sigmoid::backward before training forward");
  }
  Tensor gx(grad_out.shape());
  const float* pg = grad_out.data();
  const float* py = cached_output_.cdata();
  float* po = gx.data();
  elementwise(grad_out.numel(),
              [&](int64_t i) { po[i] = pg[i] * py[i] * (1.0f - py[i]); });
  return gx;
}

Tensor Tanh::forward(const Tensor& input) {
  Tensor out(input.shape());
  const float* pin = input.data();
  float* po = out.data();
  elementwise(input.numel(), [&](int64_t i) { po[i] = std::tanh(pin[i]); });
  if (is_training()) cached_output_ = out;
  return out;
}

Tensor Tanh::backward(const Tensor& grad_out) {
  if (cached_output_.empty()) {
    throw std::logic_error("Tanh::backward before training forward");
  }
  Tensor gx(grad_out.shape());
  const float* pg = grad_out.data();
  const float* py = cached_output_.cdata();
  float* po = gx.data();
  elementwise(grad_out.numel(),
              [&](int64_t i) { po[i] = pg[i] * (1.0f - py[i] * py[i]); });
  return gx;
}

Dropout::Dropout(float p, uint64_t seed)
    : Module("Dropout"), p_(p), rng_state_(seed) {
  if (p < 0.0f || p >= 1.0f) {
    throw std::invalid_argument("Dropout: p must be in [0, 1)");
  }
}

Tensor Dropout::forward(const Tensor& input) {
  if (!is_training() || p_ == 0.0f) return input;
  // splitmix64 stream: cheap, seedable, state advances across batches
  auto next = [this]() {
    rng_state_ += 0x9E3779B97F4A7C15ull;
    uint64_t z = rng_state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  const float keep = 1.0f - p_;
  const float scale = 1.0f / keep;
  Tensor out(input.shape());
  const float* pin = input.data();
  float* po = out.data();
  mask_.assign(static_cast<size_t>(input.numel()), 0);
  for (int64_t i = 0; i < input.numel(); ++i) {
    const bool live =
        (next() >> 11) * 0x1.0p-53 < keep;  // uniform [0,1) from 53 bits
    if (live) {
      mask_[static_cast<size_t>(i)] = 1;
      po[i] = pin[i] * scale;
    }
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_out) {
  if (!is_training() || p_ == 0.0f) return grad_out;
  if (mask_.size() != static_cast<size_t>(grad_out.numel())) {
    throw std::logic_error("Dropout::backward before training forward");
  }
  const float scale = 1.0f / (1.0f - p_);
  Tensor gx(grad_out.shape());
  const float* pg = grad_out.data();
  float* po = gx.data();
  for (int64_t i = 0; i < grad_out.numel(); ++i) {
    po[i] = mask_[static_cast<size_t>(i)] ? pg[i] * scale : 0.0f;
  }
  return gx;
}

Tensor Flatten::forward(const Tensor& input) {
  cached_shape_ = input.shape();
  return input.reshape({input.size(0), -1});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  Shape s = cached_shape_;
  return grad_out.reshape(std::move(s));
}

}  // namespace ge::nn
