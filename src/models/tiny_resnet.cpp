#include "models/tiny_resnet.hpp"

#include <stdexcept>

#include "parallel/thread_pool.hpp"
#include "tensor/tensor_ops.hpp"

namespace ge::models {

BasicBlock::BasicBlock(int64_t in_channels, int64_t out_channels,
                       int64_t stride, Rng& rng)
    : Module("BasicBlock"),
      projected_(stride != 1 || in_channels != out_channels),
      conv1_(std::make_unique<nn::Conv2d>(in_channels, out_channels, 3,
                                          stride, 1, rng, false)),
      bn1_(std::make_unique<nn::BatchNorm2d>(out_channels)),
      relu1_(std::make_unique<nn::ReLU>()),
      conv2_(std::make_unique<nn::Conv2d>(out_channels, out_channels, 3, 1, 1,
                                          rng, false)),
      bn2_(std::make_unique<nn::BatchNorm2d>(out_channels)) {
  register_child("conv1", *conv1_);
  register_child("bn1", *bn1_);
  register_child("relu1", *relu1_);
  register_child("conv2", *conv2_);
  register_child("bn2", *bn2_);
  if (projected_) {
    proj_conv_ = std::make_unique<nn::Conv2d>(in_channels, out_channels, 1,
                                              stride, 0, rng, false);
    proj_bn_ = std::make_unique<nn::BatchNorm2d>(out_channels);
    register_child("proj_conv", *proj_conv_);
    register_child("proj_bn", *proj_bn_);
  }
}

Tensor BasicBlock::forward(const Tensor& input) {
  Tensor main = (*bn2_)((*conv2_)((*relu1_)((*bn1_)((*conv1_)(input)))));
  Tensor skip =
      projected_ ? (*proj_bn_)((*proj_conv_)(input)) : input;
  Tensor sum = ops::add(main, skip);
  // final ReLU (kept inline so we own its mask for backward)
  const int64_t n = sum.numel();
  const bool cache = is_training();
  if (cache) out_mask_.assign(static_cast<size_t>(n), 0);
  uint8_t* mask = out_mask_.data();
  float* p = sum.data();
  parallel::parallel_for(0, n, 4096, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      if (p[i] > 0.0f) {
        if (cache) mask[i] = 1;
      } else {
        p[i] = 0.0f;
      }
    }
  });
  return sum;
}

Tensor BasicBlock::backward(const Tensor& grad_out) {
  if (out_mask_.size() != static_cast<size_t>(grad_out.numel())) {
    throw std::logic_error("BasicBlock::backward before training forward");
  }
  Tensor g = grad_out;
  float* pg = g.data();
  const uint8_t* mask = out_mask_.data();
  parallel::parallel_for(0, g.numel(), 4096, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      if (!mask[i]) pg[i] = 0.0f;
    }
  });
  Tensor g_main = conv1_->backward(
      bn1_->backward(relu1_->backward(conv2_->backward(bn2_->backward(g)))));
  Tensor g_skip =
      projected_ ? proj_conv_->backward(proj_bn_->backward(g)) : g;
  return ops::add(g_main, g_skip);
}

TinyResNet::TinyResNet(int64_t in_channels, int64_t num_classes, Rng& rng,
                       int64_t width, int64_t blocks_per_stage)
    : Module("TinyResNet"),
      stem_conv_(std::make_unique<nn::Conv2d>(in_channels, width, 3, 1, 1,
                                              rng, false)),
      stem_bn_(std::make_unique<nn::BatchNorm2d>(width)),
      stem_relu_(std::make_unique<nn::ReLU>()),
      pool_(std::make_unique<nn::GlobalAvgPool>()),
      head_(std::make_unique<nn::Linear>(width * 4, num_classes, rng)) {
  register_child("stem_conv", *stem_conv_);
  register_child("stem_bn", *stem_bn_);
  register_child("stem_relu", *stem_relu_);
  int64_t in_c = width;
  int64_t block_id = 0;
  for (int stage = 0; stage < 3; ++stage) {
    const int64_t out_c = width << stage;
    for (int64_t b = 0; b < blocks_per_stage; ++b) {
      const int64_t stride = (stage > 0 && b == 0) ? 2 : 1;
      auto block = std::make_unique<BasicBlock>(in_c, out_c, stride, rng);
      register_child("block" + std::to_string(block_id++), *block);
      blocks_.push_back(std::move(block));
      in_c = out_c;
    }
  }
  register_child("pool", *pool_);
  register_child("head", *head_);
}

Tensor TinyResNet::forward(const Tensor& input) {
  Tensor x = (*stem_relu_)((*stem_bn_)((*stem_conv_)(input)));
  for (auto& b : blocks_) x = (*b)(x);
  return (*head_)((*pool_)(x));
}

Tensor TinyResNet::backward(const Tensor& grad_out) {
  Tensor g = pool_->backward(head_->backward(grad_out));
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return stem_conv_->backward(stem_bn_->backward(stem_relu_->backward(g)));
}

}  // namespace ge::models
