// MultiheadSelfAttention over (B, T, D) token tensors.
//
// The Q/K/V and output projections are child Linear modules invoked via
// operator(), so GoldenEye's hook-based emulation instruments them exactly
// like any other LINEAR layer in the network.
#pragma once

#include <memory>

#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace ge::nn {

class MultiheadSelfAttention : public Module {
 public:
  /// embed_dim must be divisible by num_heads.
  MultiheadSelfAttention(int64_t embed_dim, int64_t num_heads, Rng& rng);

  Tensor forward(const Tensor& input) override;   // (B, T, D) -> (B, T, D)
  Tensor backward(const Tensor& grad_out) override;

  int64_t embed_dim() const noexcept { return dim_; }
  int64_t num_heads() const noexcept { return heads_; }

 private:
  int64_t dim_;
  int64_t heads_;
  int64_t head_dim_;
  float scale_;
  std::unique_ptr<Linear> qkv_;
  std::unique_ptr<Linear> proj_;
  // caches (training forward only)
  Tensor qkv_cache_;  // (B, T, 3D) projection output, shared not copied
  Tensor attn_;       // (B, H, T, T)
  int64_t cached_B_ = 0, cached_T_ = 0;
};

}  // namespace ge::nn
