#include "tensor/tensor_ops.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace ge::ops {

namespace {

/// Elementwise kernels fall back to one chunk below this size; above it
/// they split into fixed 32k-element chunks (boundaries independent of the
/// thread count, so results are bitwise identical at any GE_NUM_THREADS).
constexpr int64_t kElementGrain = 32 * 1024;

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                shape_to_string(a.shape()) + " vs " +
                                shape_to_string(b.shape()));
  }
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  Tensor out(a.shape());
  const float* pa = a.cdata();
  const float* pb = b.cdata();
  float* po = out.data();
  parallel::parallel_for(0, a.numel(), kElementGrain,
                         [&](int64_t lo, int64_t hi) {
                           for (int64_t i = lo; i < hi; ++i) {
                             po[i] = pa[i] + pb[i];
                           }
                         });
  return out;
}

void add_inplace(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add_inplace");
  float* pa = a.data();
  const float* pb = b.cdata();
  parallel::parallel_for(0, a.numel(), kElementGrain,
                         [&](int64_t lo, int64_t hi) {
                           for (int64_t i = lo; i < hi; ++i) pa[i] += pb[i];
                         });
}

void mul_scalar_inplace(Tensor& a, float s) {
  for (float& v : a.flat()) v *= s;
}

/// max |x_i|, skipping NaNs (std::max keeps the running value against a
/// NaN), as per-chunk maxima folded afterwards. max is exact in any order,
/// so the result equals the serial scan at any thread count.
float max_abs(const Tensor& a) {
  const float* p = a.cdata();
  const int64_t n = a.numel();
  auto scan = [p](int64_t lo, int64_t hi) {
    // Eight independent running maxima, so the loop is not one serial
    // dependency chain (and vectorises).
    float acc[8] = {};
    int64_t i = lo;
    for (; i + 8 <= hi; i += 8) {
      for (int j = 0; j < 8; ++j) {
        acc[j] = std::max(acc[j], std::fabs(p[i + j]));
      }
    }
    for (; i < hi; ++i) acc[0] = std::max(acc[0], std::fabs(p[i]));
    float m = 0.0f;
    for (float x : acc) m = std::max(m, x);
    return m;
  };
  if (n <= kElementGrain) return scan(0, n);
  std::vector<float> part(static_cast<size_t>((n - 1) / kElementGrain + 1));
  parallel::parallel_for(0, n, kElementGrain, [&](int64_t lo, int64_t hi) {
    part[static_cast<size_t>(lo / kElementGrain)] = scan(lo, hi);
  });
  float m = 0.0f;
  for (float x : part) m = std::max(m, x);
  return m;
}

float min_value(const Tensor& a) {
  if (a.numel() == 0) throw std::invalid_argument("min of empty tensor");
  float m = std::numeric_limits<float>::infinity();
  for (float v : a.flat()) m = std::min(m, v);
  return m;
}

float max_value(const Tensor& a) {
  if (a.numel() == 0) throw std::invalid_argument("max of empty tensor");
  float m = -std::numeric_limits<float>::infinity();
  for (float v : a.flat()) m = std::max(m, v);
  return m;
}

std::vector<int64_t> argmax_rows(const Tensor& a) {
  if (a.dim() < 1) throw std::invalid_argument("argmax_rows: rank-0 tensor");
  const int64_t cols = a.size(-1);
  if (cols == 0) throw std::invalid_argument("argmax_rows: empty rows");
  const int64_t rows = a.numel() / cols;
  std::vector<int64_t> out(static_cast<size_t>(rows));
  const float* p = a.cdata();
  parallel::parallel_for(
      0, rows, parallel::grain_for(cols), [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const float* row = p + r * cols;
          int64_t best = 0;
          for (int64_t c = 1; c < cols; ++c) {
            if (row[c] > row[best]) best = c;
          }
          out[static_cast<size_t>(r)] = best;
        }
      });
  return out;
}

Tensor softmax_lastdim(const Tensor& a) {
  const int64_t cols = a.size(-1);
  const int64_t rows = a.numel() / cols;
  Tensor out(a.shape());
  const float* p = a.cdata();
  float* po = out.data();
  parallel::parallel_for(
      0, rows, parallel::grain_for(4 * cols), [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const float* row = p + r * cols;
          float* orow = po + r * cols;
          float mx = row[0];
          for (int64_t c = 1; c < cols; ++c) mx = std::max(mx, row[c]);
          double s = 0.0;
          for (int64_t c = 0; c < cols; ++c) {
            orow[c] = std::exp(row[c] - mx);
            s += orow[c];
          }
          const float inv = static_cast<float>(1.0 / s);
          for (int64_t c = 0; c < cols; ++c) orow[c] *= inv;
        }
      });
  return out;
}

Tensor log_softmax_lastdim(const Tensor& a) {
  const int64_t cols = a.size(-1);
  const int64_t rows = a.numel() / cols;
  Tensor out(a.shape());
  const float* p = a.cdata();
  float* po = out.data();
  parallel::parallel_for(
      0, rows, parallel::grain_for(4 * cols), [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const float* row = p + r * cols;
          float* orow = po + r * cols;
          float mx = row[0];
          for (int64_t c = 1; c < cols; ++c) mx = std::max(mx, row[c]);
          double s = 0.0;
          for (int64_t c = 0; c < cols; ++c) {
            s += std::exp(double(row[c]) - mx);
          }
          const float lse = mx + static_cast<float>(std::log(s));
          for (int64_t c = 0; c < cols; ++c) orow[c] = row[c] - lse;
        }
      });
  return out;
}

Tensor im2col(const Tensor& input, const Conv2dSpec& s) {
  if (input.dim() != 4) throw std::invalid_argument("im2col: need NCHW");
  const int64_t N = input.size(0), C = input.size(1), H = input.size(2),
                W = input.size(3);
  const int64_t OH = s.out_h(H), OW = s.out_w(W);
  if (OH <= 0 || OW <= 0) {
    throw std::invalid_argument("im2col: empty output window");
  }
  const int64_t patch = C * s.kernel_h * s.kernel_w;
  Tensor cols({N * OH * OW, patch});
  const float* pin = input.cdata();
  float* pc = cols.data();
  // Parallel over output rows r = (n*OH + oh)*OW + ow; each row writes a
  // disjoint `patch`-sized slice of `cols`.
  parallel::parallel_for(
      0, N * OH * OW, parallel::grain_for(patch), [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const int64_t ow = r % OW;
          const int64_t oh = (r / OW) % OH;
          const int64_t n = r / (OW * OH);
          float* dst = pc + r * patch;
          for (int64_t c = 0; c < C; ++c) {
            for (int64_t kh = 0; kh < s.kernel_h; ++kh) {
              const int64_t ih = oh * s.stride_h - s.pad_h + kh;
              for (int64_t kw = 0; kw < s.kernel_w; ++kw) {
                const int64_t iw = ow * s.stride_w - s.pad_w + kw;
                float v = 0.0f;
                if (ih >= 0 && ih < H && iw >= 0 && iw < W) {
                  v = pin[((n * C + c) * H + ih) * W + iw];
                }
                *dst++ = v;
              }
            }
          }
        }
      });
  return cols;
}

Tensor col2im(const Tensor& cols, const Shape& input_shape,
              const Conv2dSpec& s) {
  if (input_shape.size() != 4) {
    throw std::invalid_argument("col2im: need NCHW target shape");
  }
  const int64_t N = input_shape[0], C = input_shape[1], H = input_shape[2],
                W = input_shape[3];
  const int64_t OH = s.out_h(H), OW = s.out_w(W);
  const int64_t patch = C * s.kernel_h * s.kernel_w;
  if (cols.dim() != 2 || cols.size(0) != N * OH * OW ||
      cols.size(1) != patch) {
    throw std::invalid_argument("col2im: cols shape mismatch");
  }
  Tensor out(input_shape);
  const float* pc = cols.cdata();
  float* pout = out.data();
  // Serial on purpose: overlapping windows scatter-add into the same input
  // cells, so a parallel version would race (or need per-thread partials
  // whose merge order breaks bitwise determinism).
  for (int64_t n = 0; n < N; ++n) {
    for (int64_t oh = 0; oh < OH; ++oh) {
      for (int64_t ow = 0; ow < OW; ++ow) {
        const float* src = pc + ((n * OH + oh) * OW + ow) * patch;
        for (int64_t c = 0; c < C; ++c) {
          for (int64_t kh = 0; kh < s.kernel_h; ++kh) {
            const int64_t ih = oh * s.stride_h - s.pad_h + kh;
            for (int64_t kw = 0; kw < s.kernel_w; ++kw) {
              const int64_t iw = ow * s.stride_w - s.pad_w + kw;
              const float v = *src++;
              if (ih >= 0 && ih < H && iw >= 0 && iw < W) {
                pout[((n * C + c) * H + ih) * W + iw] += v;
              }
            }
          }
        }
      }
    }
  }
  return out;
}

Tensor maxpool2d(const Tensor& input, const Conv2dSpec& s,
                 std::vector<int64_t>* argmax_out) {
  if (input.dim() != 4) throw std::invalid_argument("maxpool2d: need NCHW");
  const int64_t N = input.size(0), C = input.size(1), H = input.size(2),
                W = input.size(3);
  const int64_t OH = s.out_h(H), OW = s.out_w(W);
  Tensor out({N, C, OH, OW});
  if (argmax_out) argmax_out->assign(static_cast<size_t>(out.numel()), -1);
  const float* pin = input.cdata();
  float* po = out.data();
  // Parallel over (n, c) planes; each plane owns a disjoint OH*OW output
  // slice, so `oidx` is computed from the plane index rather than carried
  // as a running counter.
  parallel::parallel_for(
      0, N * C, parallel::grain_for(OH * OW * s.kernel_h * s.kernel_w),
      [&](int64_t lo, int64_t hi) {
        for (int64_t nc = lo; nc < hi; ++nc) {
          const int64_t n = nc / C;
          const int64_t c = nc % C;
          const float* plane = pin + nc * H * W;
          int64_t oidx = nc * OH * OW;
          for (int64_t oh = 0; oh < OH; ++oh) {
            for (int64_t ow = 0; ow < OW; ++ow, ++oidx) {
              float best = -std::numeric_limits<float>::infinity();
              int64_t best_idx = -1;
              for (int64_t kh = 0; kh < s.kernel_h; ++kh) {
                const int64_t ih = oh * s.stride_h - s.pad_h + kh;
                if (ih < 0 || ih >= H) continue;
                for (int64_t kw = 0; kw < s.kernel_w; ++kw) {
                  const int64_t iw = ow * s.stride_w - s.pad_w + kw;
                  if (iw < 0 || iw >= W) continue;
                  const float v = plane[ih * W + iw];
                  if (v > best) {
                    best = v;
                    best_idx = (n * C + c) * H * W + ih * W + iw;
                  }
                }
              }
              po[oidx] = best;
              if (argmax_out) {
                (*argmax_out)[static_cast<size_t>(oidx)] = best_idx;
              }
            }
          }
        }
      });
  return out;
}

Tensor avgpool2d(const Tensor& input, const Conv2dSpec& s) {
  if (input.dim() != 4) throw std::invalid_argument("avgpool2d: need NCHW");
  const int64_t N = input.size(0), C = input.size(1), H = input.size(2),
                W = input.size(3);
  const int64_t OH = s.out_h(H), OW = s.out_w(W);
  Tensor out({N, C, OH, OW});
  const float window = static_cast<float>(s.kernel_h * s.kernel_w);
  const float* pin = input.cdata();
  float* po = out.data();
  parallel::parallel_for(
      0, N * C, parallel::grain_for(OH * OW * s.kernel_h * s.kernel_w),
      [&](int64_t lo, int64_t hi) {
        for (int64_t nc = lo; nc < hi; ++nc) {
          const float* plane = pin + nc * H * W;
          int64_t oidx = nc * OH * OW;
          for (int64_t oh = 0; oh < OH; ++oh) {
            for (int64_t ow = 0; ow < OW; ++ow, ++oidx) {
              double acc = 0.0;
              for (int64_t kh = 0; kh < s.kernel_h; ++kh) {
                const int64_t ih = oh * s.stride_h - s.pad_h + kh;
                if (ih < 0 || ih >= H) continue;
                for (int64_t kw = 0; kw < s.kernel_w; ++kw) {
                  const int64_t iw = ow * s.stride_w - s.pad_w + kw;
                  if (iw < 0 || iw >= W) continue;
                  acc += plane[ih * W + iw];
                }
              }
              po[oidx] = static_cast<float>(acc) / window;
            }
          }
        }
      });
  return out;
}

Tensor global_avgpool(const Tensor& input) {
  if (input.dim() != 4) {
    throw std::invalid_argument("global_avgpool: need NCHW");
  }
  const int64_t N = input.size(0), C = input.size(1),
                HW = input.size(2) * input.size(3);
  // 1x1 spatial: the mean of one element is the element (double-roundtrip
  // exact), so the pool is a reshape — share the storage, skip the copy.
  if (HW == 1) return input.reshape({N, C});
  Tensor out({N, C});
  const float* pin = input.cdata();
  float* po = out.data();
  parallel::parallel_for(
      0, N * C, parallel::grain_for(HW), [&](int64_t lo, int64_t hi) {
        for (int64_t nc = lo; nc < hi; ++nc) {
          const float* plane = pin + nc * HW;
          double acc = 0.0;
          for (int64_t i = 0; i < HW; ++i) acc += plane[i];
          po[nc] = static_cast<float>(acc / double(HW));
        }
      });
  return out;
}

}  // namespace ge::ops
