// The one FP32 GEMM. Every matmul, conv and attention head runs it, so
// there is one accumulation policy: each output element is one FP32
// accumulator that starts at +0.0 and adds a[i,k] * b[k,j] in ascending k.
// That is the emulated accelerator's native FP32 MAC fabric (DESIGN.md §1:
// "native" = the hardware's own format). No term is skipped — a zero times
// an Inf is NaN, as on IEEE hardware — and skipping would not change a
// finite result anyway: an accumulator that starts at +0.0 never becomes
// -0.0 under round-to-nearest, and adding +-0.0 to anything else is exact.
// For the same reason writing C equals adding C onto a zeroed buffer.
//
// B is packed once per call into k-major panels kPanel columns wide (the
// tail panel zero-padded); a kRows x kPanel tile of accumulators then walks
// k, one vector lane per output column, so no output's sum is reordered.
// Row blocks are the parallel axis; their boundaries do not touch the
// arithmetic, so results are bitwise identical at any GE_NUM_THREADS and
// for any operand strides.
//
// Three micro-kernels sit under the one driver: portable C++ (8-wide
// panels, 4-row tile, vectorised by the compiler for the build's baseline
// ISA), AVX2 (8-wide, 8 rows) and AVX-512F (16-wide, 8 rows). The widest
// one the CPU supports is chosen once per process. Each does a separate
// vector multiply, then a separate vector add — never an FMA, which rounds
// once where the fabric rounds twice — so every path is bitwise equal to
// the portable one. -ffp-contract=off (src/CMakeLists.txt) stops the
// compiler from fusing the pair behind our back.
#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>

#include "parallel/thread_pool.hpp"
#include "tensor/tensor_ops.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define GE_GEMM_X86 1
#endif

namespace ge::ops {

using testing::GemmPath;

namespace {

void check_gemm_shapes(const ConstTensorView& a, const ConstTensorView& b) {
  if (a.dim() != 2 || b.dim() != 2 || a.size(1) != b.size(0)) {
    throw std::invalid_argument("gemm: bad shapes " +
                                shape_to_string(a.shape()) + " x " +
                                shape_to_string(b.shape()));
  }
}

// Each kernel's tile<R>() multiplies R rows of A (row stride sa_i, column
// stride sa_k) by one packed B panel and writes the first `width` columns
// of the R x kPanel result to c (row stride ldc).

struct PortableKernel {
  static constexpr int64_t kPanel = 8;
  static constexpr int64_t kRows = 4;

  template <int64_t R>
  static void tile(const float* a, int64_t sa_i, int64_t sa_k,
                   const float* panel, int64_t K, float* c, int64_t ldc,
                   int64_t width) {
    float acc[R][kPanel] = {};
    for (int64_t k = 0; k < K; ++k) {
      const float* bk = panel + k * kPanel;
      for (int64_t r = 0; r < R; ++r) {
        const float av = a[r * sa_i + k * sa_k];
        for (int64_t j = 0; j < kPanel; ++j) acc[r][j] += av * bk[j];
      }
    }
    for (int64_t r = 0; r < R; ++r) {
      std::copy(acc[r], acc[r] + width, c + r * ldc);
    }
  }
};

#ifdef GE_GEMM_X86

struct Avx2Kernel {
  static constexpr int64_t kPanel = 8;
  static constexpr int64_t kRows = 8;

  template <int64_t R>
  __attribute__((target("avx2"))) static void tile(
      const float* a, int64_t sa_i, int64_t sa_k, const float* panel,
      int64_t K, float* c, int64_t ldc, int64_t width) {
    __m256 acc[R];
#pragma GCC unroll 8
    for (int64_t r = 0; r < R; ++r) acc[r] = _mm256_setzero_ps();
    for (int64_t k = 0; k < K; ++k) {
      const __m256 bk = _mm256_loadu_ps(panel + k * kPanel);
#pragma GCC unroll 8
      for (int64_t r = 0; r < R; ++r) {
        const __m256 av = _mm256_set1_ps(a[r * sa_i + k * sa_k]);
        acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(av, bk));
      }
    }
#pragma GCC unroll 8
    for (int64_t r = 0; r < R; ++r) {
      if (width == kPanel) {
        _mm256_storeu_ps(c + r * ldc, acc[r]);
      } else {
        alignas(32) float lanes[kPanel];
        _mm256_store_ps(lanes, acc[r]);
        std::copy(lanes, lanes + width, c + r * ldc);
      }
    }
  }
};

struct Avx512Kernel {
  static constexpr int64_t kPanel = 16;
  static constexpr int64_t kRows = 8;

  template <int64_t R>
  __attribute__((target("avx512f"))) static void tile(
      const float* a, int64_t sa_i, int64_t sa_k, const float* panel,
      int64_t K, float* c, int64_t ldc, int64_t width) {
    __m512 acc[R];
#pragma GCC unroll 8
    for (int64_t r = 0; r < R; ++r) acc[r] = _mm512_setzero_ps();
    for (int64_t k = 0; k < K; ++k) {
      const __m512 bk = _mm512_loadu_ps(panel + k * kPanel);
#pragma GCC unroll 8
      for (int64_t r = 0; r < R; ++r) {
        const __m512 av = _mm512_set1_ps(a[r * sa_i + k * sa_k]);
        acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(av, bk));
      }
    }
    const __mmask16 lanes = static_cast<__mmask16>((1u << width) - 1u);
#pragma GCC unroll 8
    for (int64_t r = 0; r < R; ++r) {
      _mm512_mask_storeu_ps(c + r * ldc, lanes, acc[r]);
    }
  }
};

#endif  // GE_GEMM_X86

/// The shared driver: packs B into Kernel::kPanel-wide panels, then runs
/// Kernel::kRows-row tiles (single rows for the M tail) over row blocks.
template <class Kernel>
void gemm_with(const ConstTensorView& a, const ConstTensorView& b, float* c,
               int64_t ldc) {
  constexpr int64_t kPanel = Kernel::kPanel, kRows = Kernel::kRows;
  const int64_t M = a.size(0), K = a.size(1), N = b.size(1);

  const int64_t panels = (N + kPanel - 1) / kPanel;
  Tensor packed({panels * K * kPanel});
  float* pp = packed.data();
  const float* pb = b.storage() + b.offset();
  const int64_t sb_k = b.strides()[0], sb_j = b.strides()[1];
  for (int64_t p = 0; p < panels; ++p) {
    const int64_t j0 = p * kPanel, width = std::min(kPanel, N - j0);
    float* dst = pp + p * K * kPanel;
    for (int64_t k = 0; k < K; ++k) {
      for (int64_t j = 0; j < width; ++j) {
        dst[k * kPanel + j] = pb[k * sb_k + (j0 + j) * sb_j];
      }
    }
  }

  const float* pa = a.storage() + a.offset();
  const int64_t sa_i = a.strides()[0], sa_k = a.strides()[1];
  parallel::parallel_for(
      0, (M + kRows - 1) / kRows, parallel::grain_for(kRows * K * N),
      [&](int64_t lo, int64_t hi) {
        const int64_t i_end = std::min(M, hi * kRows);
        for (int64_t p = 0; p < panels; ++p) {
          const float* panel = pp + p * K * kPanel;
          const int64_t j0 = p * kPanel, width = std::min(kPanel, N - j0);
          int64_t i = lo * kRows;
          for (; i + kRows <= i_end; i += kRows) {
            Kernel::template tile<kRows>(pa + i * sa_i, sa_i, sa_k, panel, K,
                                         c + i * ldc + j0, ldc, width);
          }
          for (; i < i_end; ++i) {
            Kernel::template tile<1>(pa + i * sa_i, sa_i, sa_k, panel, K,
                                     c + i * ldc + j0, ldc, width);
          }
        }
      });
}

/// The path every gemm call runs: the host's widest, detected on first use.
std::atomic<GemmPath>& active_path() {
  using testing::gemm_path_supported;
  static std::atomic<GemmPath> path{
      gemm_path_supported(GemmPath::kAvx512f) ? GemmPath::kAvx512f
      : gemm_path_supported(GemmPath::kAvx2)  ? GemmPath::kAvx2
                                              : GemmPath::kPortable};
  return path;
}

Tensor product(const ConstTensorView& a, const ConstTensorView& b) {
  check_gemm_shapes(a, b);
  Tensor out({a.size(0), b.size(1)});
  gemm(a, b, out.data(), b.size(1));
  return out;
}

}  // namespace

void gemm(const ConstTensorView& a, const ConstTensorView& b, float* c,
          int64_t ldc) {
  check_gemm_shapes(a, b);
  if (ldc < b.size(1)) throw std::invalid_argument("gemm: ldc below N");
  if (a.size(0) == 0 || b.size(1) == 0) return;
  switch (active_path().load(std::memory_order_relaxed)) {
#ifdef GE_GEMM_X86
    case GemmPath::kAvx512f:
      return gemm_with<Avx512Kernel>(a, b, c, ldc);
    case GemmPath::kAvx2:
      return gemm_with<Avx2Kernel>(a, b, c, ldc);
#endif
    default:
      return gemm_with<PortableKernel>(a, b, c, ldc);
  }
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  return product(ConstTensorView(a), ConstTensorView(b));
}

Tensor matmul_bt(const Tensor& a, const Tensor& b_t) {
  return product(ConstTensorView(a), ConstTensorView(b_t).transposed());
}

namespace testing {

const char* gemm_path_name(GemmPath path) {
  switch (path) {
    case GemmPath::kPortable:
      return "portable";
    case GemmPath::kAvx2:
      return "avx2";
    case GemmPath::kAvx512f:
      return "avx512f";
  }
  return "?";
}

bool gemm_path_supported(GemmPath path) {
#ifdef GE_GEMM_X86
  __builtin_cpu_init();
  switch (path) {
    case GemmPath::kPortable:
      return true;
    case GemmPath::kAvx2:
      return __builtin_cpu_supports("avx2");
    case GemmPath::kAvx512f:
      return __builtin_cpu_supports("avx512f");
  }
#endif
  return path == GemmPath::kPortable;
}

GemmPath gemm_path() {
  return active_path().load(std::memory_order_relaxed);
}

void force_gemm_path(GemmPath path) {
  if (!gemm_path_supported(path)) {
    throw std::invalid_argument(std::string("gemm: this CPU lacks the ") +
                                gemm_path_name(path) + " path");
  }
  active_path().store(path, std::memory_order_relaxed);
}

}  // namespace testing

}  // namespace ge::ops
