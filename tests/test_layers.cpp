// Layer forward semantics: shapes, known values, mode behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "nn/activation.hpp"
#include "nn/attention.hpp"
#include "nn/conv.hpp"
#include "nn/embedding.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/norm.hpp"
#include "nn/optim.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "nn/transformer.hpp"
#include "tensor/tensor_ops.hpp"

namespace ge::nn {
namespace {

/// Test-side elementwise helpers (the library keeps only what layers use).
float mean(const Tensor& t) {
  double s = 0.0;
  for (float v : t.flat()) s += v;
  return static_cast<float>(s / static_cast<double>(t.numel()));
}

Tensor scaled(const Tensor& a, float s) {
  Tensor out = a;
  ops::mul_scalar_inplace(out, s);
  return out;
}

TEST(Linear, ComputesAffineMap) {
  Rng rng(1);
  Linear lin(2, 2, rng);
  lin.weight().value = Tensor({2, 2}, {1, 2, 3, 4});
  lin.bias()->value = Tensor({2}, {10, 20});
  Tensor y = lin(Tensor({1, 2}, {1, 1}));
  EXPECT_NEAR(y[0], 1 + 2 + 10, 1e-5f);
  EXPECT_NEAR(y[1], 3 + 4 + 20, 1e-5f);
}

TEST(Linear, HandlesRank3Inputs) {
  Rng rng(2);
  Linear lin(4, 6, rng);
  Tensor y = lin(Tensor({2, 3, 4}));
  EXPECT_EQ(y.shape(), (Shape{2, 3, 6}));
}

TEST(Linear, NoBiasVariant) {
  Rng rng(3);
  Linear lin(3, 2, rng, /*with_bias=*/false);
  EXPECT_EQ(lin.bias(), nullptr);
  EXPECT_EQ(lin.local_parameters().size(), 1u);
  Tensor y = lin(Tensor({1, 3}));  // zero in, zero out without bias
  for (float v : y.flat()) EXPECT_EQ(v, 0.0f);
}

TEST(Linear, RejectsWrongLastDim) {
  Rng rng(4);
  Linear lin(3, 2, rng);
  EXPECT_THROW(lin(Tensor({1, 4})), std::invalid_argument);
}

TEST(Conv2d, MatchesHandComputedValue) {
  Rng rng(5);
  Conv2d conv(1, 1, 3, 1, 1, rng);
  conv.weight().value.fill(1.0f);  // 3x3 sum filter
  conv.bias()->value.fill(0.5f);
  Tensor x = Tensor::ones({1, 1, 3, 3});
  Tensor y = conv(x);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 3, 3}));
  EXPECT_NEAR(y.at({0, 0, 1, 1}), 9.0f + 0.5f, 1e-5f);  // full window
  EXPECT_NEAR(y.at({0, 0, 0, 0}), 4.0f + 0.5f, 1e-5f);  // corner
}

TEST(Conv2d, StrideAndChannels) {
  Rng rng(6);
  Conv2d conv(3, 8, 3, 2, 1, rng);
  Tensor y = conv(Tensor({2, 3, 16, 16}));
  EXPECT_EQ(y.shape(), (Shape{2, 8, 8, 8}));
}

TEST(Conv2d, ForwardMatchesAscendingTapReferenceBitwise) {
  // Every Conv2d forward is im2col plus the one GEMM: one FP32 accumulator
  // per output over taps in ascending (c, kh, kw) — padding taps included
  // as 0.0f — then + bias. Train mode runs the same kernel as eval.
  struct Geometry {
    int64_t c, oc, kernel, stride, pad, h;
  };
  const Geometry geometries[] = {
      {3, 5, 3, 1, 1, 7},  // padded 3x3, stride 1
      {3, 6, 4, 4, 0, 8},  // PatchEmbed: unpadded 4x4, stride 4
      {4, 7, 1, 2, 0, 7},  // 1x1, stride 2 (residual projection)
  };
  for (const Geometry& g : geometries) {
    Rng rng(50 + g.kernel);
    Conv2d conv(g.c, g.oc, g.kernel, g.stride, g.pad, rng);
    conv.bias()->value = rng.normal_tensor({g.oc});
    const Tensor x = rng.normal_tensor({2, g.c, g.h, g.h});
    const ops::Conv2dSpec& s = conv.spec();
    const int64_t OH = s.out_h(g.h), OW = s.out_w(g.h);
    const Tensor& w = conv.weight().value;
    const Tensor& bias = conv.bias()->value;
    Tensor ref({2, g.oc, OH, OW});
    for (int64_t n = 0; n < 2; ++n) {
      for (int64_t oc = 0; oc < g.oc; ++oc) {
        for (int64_t oh = 0; oh < OH; ++oh) {
          for (int64_t ow = 0; ow < OW; ++ow) {
            float acc = 0.0f;
            for (int64_t c = 0; c < g.c; ++c) {
              for (int64_t kh = 0; kh < g.kernel; ++kh) {
                for (int64_t kw = 0; kw < g.kernel; ++kw) {
                  const int64_t ih = oh * g.stride - g.pad + kh;
                  const int64_t iw = ow * g.stride - g.pad + kw;
                  const bool in = ih >= 0 && ih < g.h && iw >= 0 && iw < g.h;
                  const float xv = in ? x.at({n, c, ih, iw}) : 0.0f;
                  acc += xv * w.at({oc, c, kh, kw});
                }
              }
            }
            ref.at({n, oc, oh, ow}) = acc + bias[oc];
          }
        }
      }
    }
    conv.eval();
    const Tensor eval_y = conv(x);
    ASSERT_EQ(eval_y.shape(), ref.shape());
    EXPECT_EQ(std::memcmp(eval_y.cdata(), ref.cdata(),
                          sizeof(float) * static_cast<size_t>(ref.numel())),
              0)
        << "kernel " << g.kernel << " stride " << g.stride;
    conv.train(true);
    const Tensor train_y = conv(x);
    EXPECT_EQ(std::memcmp(train_y.cdata(), eval_y.cdata(),
                          sizeof(float) * static_cast<size_t>(ref.numel())),
              0)
        << "kernel " << g.kernel << " stride " << g.stride;
  }
}

TEST(Conv2d, RejectsWrongChannelCount) {
  Rng rng(7);
  Conv2d conv(3, 4, 3, 1, 1, rng);
  EXPECT_THROW(conv(Tensor({1, 2, 8, 8})), std::invalid_argument);
  EXPECT_THROW(conv(Tensor({3, 8, 8})), std::invalid_argument);
}

TEST(ReLU, ClampsNegatives) {
  ReLU relu;
  Tensor y = relu(Tensor({4}, {-1, 0, 2, -3}));
  EXPECT_TRUE(y.equals(Tensor({4}, {0, 0, 2, 0})));
}

TEST(GELU, KnownValues) {
  GELU gelu;
  Tensor y = gelu(Tensor({3}, {0.0f, 100.0f, -100.0f}));
  EXPECT_NEAR(y[0], 0.0f, 1e-6f);
  EXPECT_NEAR(y[1], 100.0f, 1e-3f);   // ≈ identity for large x
  EXPECT_NEAR(y[2], 0.0f, 1e-3f);     // ≈ 0 for very negative x
}

TEST(Sigmoid, KnownValues) {
  Sigmoid s;
  Tensor y = s(Tensor({3}, {0.0f, 100.0f, -100.0f}));
  EXPECT_NEAR(y[0], 0.5f, 1e-6f);
  EXPECT_NEAR(y[1], 1.0f, 1e-6f);
  EXPECT_NEAR(y[2], 0.0f, 1e-6f);
}

TEST(Tanh, KnownValues) {
  Tanh t;
  Tensor y = t(Tensor({2}, {0.0f, 1.0f}));
  EXPECT_NEAR(y[0], 0.0f, 1e-6f);
  EXPECT_NEAR(y[1], std::tanh(1.0f), 1e-6f);
}

TEST(Dropout, EvalIsIdentity) {
  Dropout d(0.5f);
  d.eval();
  Rng rng(30);
  Tensor x = rng.normal_tensor({64});
  EXPECT_TRUE(d(x).equals(x));
}

TEST(Dropout, TrainingDropsAndRescales) {
  Dropout d(0.5f, 99);
  d.train(true);
  Tensor x = Tensor::ones({10000});
  Tensor y = d(x);
  int64_t zeros = 0;
  for (float v : y.flat()) {
    EXPECT_TRUE(v == 0.0f || std::fabs(v - 2.0f) < 1e-6f);
    if (v == 0.0f) ++zeros;
  }
  // ~50% dropped; mean preserved by the 1/(1-p) rescale
  EXPECT_NEAR(double(zeros) / 10000.0, 0.5, 0.05);
  EXPECT_NEAR(mean(y), 1.0f, 0.05f);
}

TEST(Dropout, RejectsBadProbability) {
  EXPECT_THROW(Dropout(-0.1f), std::invalid_argument);
  EXPECT_THROW(Dropout(1.0f), std::invalid_argument);
  EXPECT_NO_THROW(Dropout(0.0f));
}

TEST(Dropout, BackwardUsesSameMask) {
  Dropout d(0.5f, 7);
  d.train(true);
  Tensor x = Tensor::ones({256});
  Tensor y = d(x);
  Tensor g = d.backward(Tensor::ones({256}));
  for (int64_t i = 0; i < 256; ++i) {
    EXPECT_EQ(g[i] == 0.0f, y[i] == 0.0f) << i;  // identical survivors
  }
}

TEST(Flatten, CollapsesTrailingDims) {
  Flatten fl;
  Tensor y = fl(Tensor({2, 3, 4, 5}));
  EXPECT_EQ(y.shape(), (Shape{2, 60}));
}

TEST(BatchNorm, EvalUsesRunningStats) {
  BatchNorm2d bn(2);
  bn.eval();
  // default running stats: mean 0, var 1 -> identity (gamma=1, beta=0)
  Rng rng(8);
  Tensor x = rng.normal_tensor({2, 2, 3, 3});
  Tensor y = bn(x);
  EXPECT_TRUE(y.allclose(x, 1e-4f));
}

TEST(BatchNorm, TrainingNormalisesBatch) {
  BatchNorm2d bn(1);
  bn.train(true);
  Rng rng(9);
  Tensor x = rng.normal_tensor({4, 1, 8, 8}, 5.0f, 3.0f);
  Tensor y = bn(x);
  EXPECT_NEAR(mean(y), 0.0f, 1e-4f);
  double var = 0.0;
  for (float v : y.flat()) var += double(v) * v;
  var /= y.numel();
  EXPECT_NEAR(var, 1.0, 1e-2);
}

TEST(BatchNorm, RunningStatsConvergeTowardBatchStats) {
  BatchNorm2d bn(1);
  bn.train(true);
  Rng rng(10);
  Tensor x = rng.normal_tensor({8, 1, 8, 8}, 2.0f, 1.0f);
  for (int i = 0; i < 50; ++i) (void)bn(x);
  bn.eval();
  Tensor y = bn(x);
  // after convergence, eval output ≈ training output (batch ≈ running)
  EXPECT_NEAR(mean(y), 0.0f, 0.05f);
}

TEST(LayerNorm, NormalisesEachRow) {
  LayerNorm ln(8);
  Rng rng(11);
  Tensor x = rng.normal_tensor({4, 8}, 3.0f, 2.0f);
  Tensor y = ln(x);
  for (int64_t r = 0; r < 4; ++r) {
    double m = 0.0;
    for (int64_t c = 0; c < 8; ++c) m += y[r * 8 + c];
    EXPECT_NEAR(m / 8.0, 0.0, 1e-4);
  }
}

TEST(MaxPool, ForwardShape) {
  MaxPool2d mp(2, 2);
  EXPECT_EQ(mp(Tensor({1, 3, 8, 8})).shape(), (Shape{1, 3, 4, 4}));
}

TEST(Attention, OutputShapeMatchesInput) {
  Rng rng(12);
  MultiheadSelfAttention attn(16, 4, rng);
  Tensor y = attn(Tensor({2, 5, 16}));
  EXPECT_EQ(y.shape(), (Shape{2, 5, 16}));
}

TEST(Attention, RejectsIndivisibleHeads) {
  Rng rng(13);
  EXPECT_THROW(MultiheadSelfAttention(10, 3, rng), std::invalid_argument);
}

TEST(Attention, HooksFireOnInternalProjections) {
  Rng rng(14);
  MultiheadSelfAttention attn(8, 2, rng);
  int fired = 0;
  for (auto& [p, m] : attn.named_modules()) {
    if (m->kind() == "Linear") {
      m->add_forward_hook([&fired](Module&, Tensor&) { ++fired; });
    }
  }
  (void)attn(Tensor({1, 3, 8}));
  EXPECT_EQ(fired, 2);  // qkv + proj
}

TEST(TransformerBlock, ShapePreservedAndResidualActive) {
  Rng rng(15);
  TransformerBlock block(16, 4, 32, rng);
  Rng xr(16);
  Tensor x = xr.normal_tensor({2, 5, 16});
  Tensor y = block(x);
  EXPECT_EQ(y.shape(), x.shape());
  // residual path: output correlates with input (not independent noise)
  double dot = 0.0, nx = 0.0, ny = 0.0;
  for (int64_t i = 0; i < x.numel(); ++i) {
    dot += double(x[i]) * y[i];
    nx += double(x[i]) * x[i];
    ny += double(y[i]) * y[i];
  }
  EXPECT_GT(dot / std::sqrt(nx * ny), 0.25);
}

TEST(PatchEmbed, TokenisesImage) {
  Rng rng(17);
  PatchEmbed pe(3, 32, 4, rng);
  Tensor y = pe(Tensor({2, 3, 16, 16}));
  EXPECT_EQ(y.shape(), (Shape{2, 16, 32}));
}

TEST(ClassTokenPosEmbed, PrependsToken) {
  Rng rng(18);
  ClassTokenPosEmbed em(4, 8, rng);
  Tensor y = em(Tensor({2, 4, 8}));
  EXPECT_EQ(y.shape(), (Shape{2, 5, 8}));
  EXPECT_THROW(em(Tensor({2, 3, 8})), std::invalid_argument);
}

TEST(TakeClassToken, SelectsFirstToken) {
  TakeClassToken t;
  Tensor x({1, 2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor y = t(x);
  EXPECT_TRUE(y.equals(Tensor({1, 3}, {1, 2, 3})));
}

TEST(Loss, CrossEntropyKnownValue) {
  // uniform logits over 4 classes: loss = log(4)
  Tensor logits({1, 4});
  EXPECT_NEAR(CrossEntropyLoss::evaluate(logits, {2}), std::log(4.0f), 1e-5f);
}

TEST(Loss, PerfectPredictionNearZero) {
  Tensor logits({1, 3}, {100.0f, 0.0f, 0.0f});
  EXPECT_NEAR(CrossEntropyLoss::evaluate(logits, {0}), 0.0f, 1e-4f);
}

TEST(Loss, ChecksTargets) {
  Tensor logits({2, 3});
  EXPECT_THROW(CrossEntropyLoss::evaluate(logits, {0}),
               std::invalid_argument);
  EXPECT_THROW(CrossEntropyLoss::evaluate(logits, {0, 3}),
               std::invalid_argument);
  EXPECT_THROW(CrossEntropyLoss::evaluate(Tensor({4}), {0}),
               std::invalid_argument);
}

TEST(Loss, AccuracyCounts) {
  Tensor logits({2, 2}, {1.0f, 0.0f, 0.0f, 1.0f});  // preds: 0, 1
  EXPECT_EQ(accuracy(logits, {0, 1}), 1.0f);
  EXPECT_EQ(accuracy(logits, {1, 1}), 0.5f);
}

TEST(Optim, SgdMovesAgainstGradient) {
  Rng rng(19);
  Linear lin(2, 2, rng);
  const float w0 = lin.weight().value[0];
  lin.weight().grad.fill(1.0f);
  SGD opt(lin.parameters(), 0.1f, 0.0f);
  opt.step();
  EXPECT_NEAR(lin.weight().value[0], w0 - 0.1f, 1e-6f);
}

TEST(Optim, AdamReducesQuadraticLoss) {
  // minimise ||Wx - t||^2 through our backward machinery
  Rng rng(20);
  Linear lin(4, 4, rng);
  lin.train(true);
  Adam opt(lin.parameters(), 1e-2f);
  Rng xr(21);
  Tensor x = xr.normal_tensor({8, 4});
  Tensor target = xr.normal_tensor({8, 4});
  float first_loss = -1.0f, last_loss = -1.0f;
  for (int it = 0; it < 600; ++it) {
    opt.zero_grad();
    Tensor y = lin(x);
    Tensor diff = ops::add(y, scaled(target, -1.0f));
    float loss = 0.0f;
    for (float v : diff.flat()) loss += v * v;
    if (it == 0) first_loss = loss;
    last_loss = loss;
    (void)lin.backward(scaled(diff, 2.0f));
    opt.step();
  }
  EXPECT_LT(last_loss, first_loss * 0.2f);
}

TEST(Sequential, ChainsModules) {
  Rng rng(22);
  Sequential seq;
  seq.emplace<Linear>(4, 8, rng);
  seq.emplace<ReLU>();
  seq.emplace<Linear>(8, 2, rng);
  EXPECT_EQ(seq.size(), 3);
  EXPECT_EQ(seq(Tensor({5, 4})).shape(), (Shape{5, 2}));
}

}  // namespace
}  // namespace ge::nn
