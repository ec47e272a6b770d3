// Fig. 3 — Runtime performance of GoldenEye, using different number
// formats and with error injection (EI) on/off.
//
// Measures batch-32 inference wall time for 14 configurations per model:
// native (uninstrumented FP32), emulated FP32/FP16/bfloat16, FxP(1,3,12),
// INT8, BFP e8m7 b16, AFP e4m3 — each plain, with a random single-bit
// value EI, and (for INT/BFP/AFP) with a metadata EI.
//
// Expected shape (paper): native fastest; emulation adds one quantise pass
// per layer; EI adds negligible overhead because the scalar routine runs
// once per inference. The paper's BFP/AFP were several times slower
// because they ran in Python; here every format rounds with the same
// integer kernel (src/formats/rne.hpp), so the measured order follows the
// per-tensor work: emulated FP32 (the identity) at native, then the
// value-only formats (FP16/bfloat16, FxP), then the metadata formats (AFP,
// INT8, BFP), all within about 1.4x of native (EXPERIMENTS.md).
//
// Native speed is the one FP32 GEMM's, so the bench also reports its
// GFLOP/s per micro-kernel path the CPU supports (portable, AVX2,
// AVX-512F): 512^3 at 1 and at N threads, and tiny_resnet's batch-32 conv
// products at 1 thread, as a campaign trial runs them.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <optional>

#include "core/injector.hpp"
#include "harness.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor_ops.hpp"

namespace {

using namespace ge;

struct Setup {
  std::unique_ptr<nn::Module> model;
  data::Batch batch;
};

Setup& setup(const std::string& model_name) {
  static std::map<std::string, Setup> cache;
  auto it = cache.find(model_name);
  if (it == cache.end()) {
    Setup s;
    s.model = bench::trained(model_name).model;
    s.model->eval();
    s.batch = data::take(bench::dataset().test(), 0, 32);
    it = cache.emplace(model_name, std::move(s)).first;
  }
  return it->second;
}

enum class Ei { kOff, kValue, kMetadata };

void run_inference(benchmark::State& state, const std::string& model_name,
                   const std::string& spec, Ei ei) {
  Setup& s = setup(model_name);
  std::optional<core::Emulator> emu;
  std::optional<core::Injector> inj;
  if (spec != "native") {
    core::EmulatorConfig cfg;
    cfg.format_spec = spec;
    emu.emplace(*s.model, std::move(cfg));
    if (ei != Ei::kOff) {
      inj.emplace(*emu, /*seed=*/1);
    }
  }
  uint64_t trial = 0;
  for (auto _ : state) {
    if (inj) {
      state.PauseTiming();
      core::InjectionSpec ispec;
      ispec.layer_path = emu->sites()[0].path;
      ispec.site = (ei == Ei::kMetadata) ? core::InjectionSite::kMetadata
                                         : core::InjectionSite::kActivationValue;
      inj->arm(ispec);
      state.ResumeTiming();
      ++trial;
    }
    Tensor out = (*s.model)(s.batch.images);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * s.batch.images.size(0));
}

void register_all(const std::string& model_name) {
  struct Config {
    const char* label;
    const char* spec;
    bool has_metadata;
  };
  const Config configs[] = {
      {"native", "native", false},
      {"fp32", "fp_e8m23", false},
      {"fp16", "fp_e5m10", false},
      {"bfloat16", "fp_e8m7", false},
      {"fxp_1_3_12", "fxp_1_3_12", false},
      {"int8", "int8", true},
      {"bfp_e8m7_b16", "bfp_e8m7_b16", true},
      {"afp_e4m3", "afp_e4m3", true},
  };
  for (const auto& c : configs) {
    const std::string base = model_name + "/" + c.label;
    benchmark::RegisterBenchmark(
        base.c_str(),
        [model_name, spec = std::string(c.spec)](benchmark::State& st) {
          run_inference(st, model_name, spec, Ei::kOff);
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(8);
    if (std::string(c.spec) == "native") continue;
    benchmark::RegisterBenchmark(
        (base + "+EI").c_str(),
        [model_name, spec = std::string(c.spec)](benchmark::State& st) {
          run_inference(st, model_name, spec, Ei::kValue);
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(8);
    if (c.has_metadata) {
      benchmark::RegisterBenchmark(
          (base + "+EI-metadata").c_str(),
          [model_name, spec = std::string(c.spec)](benchmark::State& st) {
            run_inference(st, model_name, spec, Ei::kMetadata);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(8);
    }
  }
}

void run_gemm(benchmark::State& state, ops::testing::GemmPath path,
              int64_t M, int64_t K, int64_t N, int threads) {
  const ops::testing::GemmPath saved_path = ops::testing::gemm_path();
  const int saved_threads = parallel::num_threads();
  ops::testing::force_gemm_path(path);
  parallel::set_num_threads(threads);
  Rng rng(5);
  const Tensor a = rng.normal_tensor({M, K});
  const Tensor b = rng.normal_tensor({K, N});
  Tensor c({M, N});
  for (auto _ : state) {
    ops::gemm(ConstTensorView(a), ConstTensorView(b), c.data(), N);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["gflops"] = benchmark::Counter(
      2e-9 * static_cast<double>(M * K * N) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  ops::testing::force_gemm_path(saved_path);
  parallel::set_num_threads(saved_threads);
}

void register_gemm_paths() {
  struct Shape {
    int64_t M, K, N;
  };
  // tiny_resnet (width 8) on a batch of 32 16x16 images: im2col rows x
  // patch x out channels of the stem and each stage's 3x3 convs.
  const Shape convs[] = {{8192, 27, 8},   {8192, 72, 8},  {2048, 72, 16},
                         {2048, 144, 16}, {512, 144, 32}, {512, 288, 32}};
  const int many = parallel::num_threads();
  for (const auto path : ops::testing::kGemmPaths) {
    const std::string name = ops::testing::gemm_path_name(path);
    if (!ops::testing::gemm_path_supported(path)) {
      std::fprintf(stderr, "[fig3] skipped gemm path %s: this CPU lacks it\n",
                   name.c_str());
      continue;
    }
    auto add = [&](const Shape& s, int threads) {
      const std::string label =
          "gemm/" + name + "/" + std::to_string(s.M) + "x" +
          std::to_string(s.K) + "x" + std::to_string(s.N) +
          "/threads:" + std::to_string(threads);
      benchmark::RegisterBenchmark(label.c_str(),
                                   [path, s, threads](benchmark::State& st) {
                                     run_gemm(st, path, s.M, s.K, s.N,
                                              threads);
                                   })
          ->Unit(benchmark::kMillisecond)
          ->UseRealTime();
    };
    add({512, 512, 512}, 1);
    if (many > 1) add({512, 512, 512}, many);
    for (const Shape& s : convs) add(s, 1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_gemm_paths();
  register_all("simple_cnn");
  register_all("tiny_deit");
  return ge::bench::run_benchmarks(argc, argv, "fig3_runtime");
}
