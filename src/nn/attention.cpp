#include "nn/attention.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "parallel/thread_pool.hpp"
#include "tensor/tensor_ops.hpp"

namespace ge::nn {

MultiheadSelfAttention::MultiheadSelfAttention(int64_t embed_dim,
                                               int64_t num_heads, Rng& rng)
    : Module("MultiheadSelfAttention"),
      dim_(embed_dim),
      heads_(num_heads),
      head_dim_(embed_dim / num_heads),
      scale_(1.0f / std::sqrt(static_cast<float>(embed_dim / num_heads))),
      qkv_(std::make_unique<Linear>(embed_dim, 3 * embed_dim, rng)),
      proj_(std::make_unique<Linear>(embed_dim, embed_dim, rng)) {
  if (embed_dim % num_heads != 0) {
    throw std::invalid_argument(
        "MultiheadSelfAttention: embed_dim % num_heads != 0");
  }
  register_child("qkv", *qkv_);
  register_child("proj", *proj_);
}

namespace {

/// (T, hd) view of columns [col, col + hd) of batch row `b` of a (B, T, W)
/// tensor: a head of q, k or v (W = 3D) or of a merged gradient (W = D),
/// read in place with row stride W.
ConstTensorView head_view(const Tensor& t, int64_t b, int64_t col,
                          int64_t hd) {
  const int64_t T = t.size(1), W = t.size(2);
  return ConstTensorView(t, b * T * W + col, {T, hd}, {W, 1});
}

}  // namespace

Tensor MultiheadSelfAttention::forward(const Tensor& input) {
  if (input.dim() != 3 || input.size(2) != dim_) {
    throw std::invalid_argument("MultiheadSelfAttention: expected (B, T, " +
                                std::to_string(dim_) + ")");
  }
  const int64_t B = input.size(0), T = input.size(1);
  const int64_t D = dim_, hd = head_dim_;
  Tensor qkv = (*qkv_)(input);  // (B, T, 3D), hooks fire on the projection

  const bool cache = is_training();
  if (cache) {
    qkv_cache_ = qkv;  // O(1) share: backward reads its q/k/v heads
    attn_ = Tensor({B, heads_, T, T});
    cached_B_ = B;
    cached_T_ = T;
  }

  Tensor merged({B, T, D});
  // Resolve mutable pointers once, before the parallel region: COW (if any)
  // fires here on one thread, and workers below only use raw pointers into
  // buffers that are unique by construction.
  float* const pm = merged.data();
  float* const pattn = cache ? attn_.data() : nullptr;
  // (b, h) pairs are independent: each writes its own hd-column slice of
  // `merged` and its own attn_ slice. The inner GEMMs run serial inline
  // because we're already in a parallel region.
  parallel::parallel_for(
      0, B * heads_, parallel::grain_for(2 * T * T * hd),
      [&](int64_t lo, int64_t hi) {
        for (int64_t bh = lo; bh < hi; ++bh) {
          const int64_t b = bh / heads_;
          const int64_t col = (bh % heads_) * hd;
          Tensor scores({T, T});
          ops::gemm(head_view(qkv, b, col, hd),
                    head_view(qkv, b, D + col, hd).transposed(),
                    scores.data(), T);
          ops::mul_scalar_inplace(scores, scale_);
          Tensor attn = ops::softmax_lastdim(scores);
          ops::gemm(ConstTensorView(attn), head_view(qkv, b, 2 * D + col, hd),
                    pm + b * T * D + col, D);
          if (cache) {
            std::copy(attn.cdata(), attn.cdata() + T * T, pattn + bh * T * T);
          }
        }
      });
  return (*proj_)(merged);
}

Tensor MultiheadSelfAttention::backward(const Tensor& grad_out) {
  if (attn_.empty()) {
    throw std::logic_error(
        "MultiheadSelfAttention::backward before training forward");
  }
  const int64_t B = cached_B_, T = cached_T_;
  const int64_t D = dim_, hd = head_dim_;
  Tensor g_merged = proj_->backward(grad_out);  // (B, T, D)
  Tensor gqkv({B, T, 3 * D});

  // Pointers resolved on this thread, before the region (same rationale as
  // in forward()).
  float* const pgq = gqkv.data();
  const float* const pattn_all = attn_.cdata();

  // Same (b, h) independence as the forward pass: each pair writes its own
  // disjoint q/k/v head columns of gqkv.
  parallel::parallel_for(
      0, B * heads_, parallel::grain_for(4 * T * T * hd),
      [&](int64_t lo, int64_t hi) {
        for (int64_t bh = lo; bh < hi; ++bh) {
          const int64_t b = bh / heads_;
          const int64_t col = (bh % heads_) * hd;
          const ConstTensorView q = head_view(qkv_cache_, b, col, hd);
          const ConstTensorView k = head_view(qkv_cache_, b, D + col, hd);
          const ConstTensorView v = head_view(qkv_cache_, b, 2 * D + col, hd);
          const ConstTensorView gout = head_view(g_merged, b, col, hd);
          const ConstTensorView attn(attn_, bh * T * T, {T, T}, {T, 1});
          float* const gq = pgq + b * T * 3 * D + col;  // k at +D, v at +2D
          // out = attn @ v
          Tensor d_attn({T, T});
          ops::gemm(gout, v.transposed(), d_attn.data(), T);
          ops::gemm(attn.transposed(), gout, gq + 2 * D, 3 * D);  // d_v
          // softmax backward, row-wise: ds = a * (da - sum(da * a))
          Tensor d_scores({T, T});
          {
            const float* pa = pattn_all + bh * T * T;
            const float* pda = d_attn.cdata();
            float* pds = d_scores.data();
            for (int64_t r = 0; r < T; ++r) {
              double dot = 0.0;
              for (int64_t c = 0; c < T; ++c) {
                dot += double(pda[r * T + c]) * pa[r * T + c];
              }
              for (int64_t c = 0; c < T; ++c) {
                pds[r * T + c] = pa[r * T + c] *
                                 (pda[r * T + c] - static_cast<float>(dot));
              }
            }
          }
          ops::mul_scalar_inplace(d_scores, scale_);
          const ConstTensorView ds(d_scores);
          ops::gemm(ds, k, gq, 3 * D);                   // d_q
          ops::gemm(ds.transposed(), q, gq + D, 3 * D);  // d_k
        }
      });
  return qkv_->backward(gqkv);
}

}  // namespace ge::nn
