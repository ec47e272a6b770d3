// BfpFormat conformance: block structure, shared-exponent metadata, and
// the "one metadata flip = multi-bit data flip" behaviour the paper builds
// its §IV-C analysis on.
#include <gtest/gtest.h>

#include <cmath>

#include "formats/bfp.hpp"
#include "tensor/rng.hpp"

namespace ge::fmt {
namespace {

TEST(Bfp, RejectsBadParameters) {
  EXPECT_THROW(BfpFormat(1, 5, 16), std::invalid_argument);
  EXPECT_THROW(BfpFormat(11, 5, 16), std::invalid_argument);
  EXPECT_THROW(BfpFormat(5, 0, 16), std::invalid_argument);
  EXPECT_THROW(BfpFormat(5, 24, 16), std::invalid_argument);
  EXPECT_THROW(BfpFormat(5, 5, -1), std::invalid_argument);
}

TEST(Bfp, PerElementWidthExcludesSharedExponent) {
  BfpFormat f(8, 7, 16);
  EXPECT_EQ(f.bit_width(), 8);  // 1 sign + 7 mantissa; exponent amortised
  EXPECT_EQ(f.spec(), "bfp_e8m7_b16");
}

TEST(Bfp, SharedExponentIsBlockMax) {
  BfpFormat f(5, 5, 4);
  // two blocks: max |.| = 6 (exp 2) and 0.4 (exp -2)
  Tensor t({8}, {1.0f, -6.0f, 2.0f, 0.5f, 0.1f, 0.4f, -0.2f, 0.3f});
  (void)f.real_to_format_tensor(t);
  ASSERT_EQ(f.num_blocks(), 2);
  EXPECT_EQ(f.shared_exponent(0), 2);
  EXPECT_EQ(f.shared_exponent(1), -2);
}

TEST(Bfp, BlockSizeZeroMeansWholeTensor) {
  BfpFormat f(5, 5, 0);
  Tensor t({6}, {1, 2, 3, 4, 5, 100});
  (void)f.real_to_format_tensor(t);
  EXPECT_EQ(f.num_blocks(), 1);
  EXPECT_EQ(f.shared_exponent(0), 6);  // floor(log2(100))
}

TEST(Bfp, LargeValuesKeepPrecisionSmallOnesRoundToZero) {
  // The paper's §IV-B observation: with a large shared block, low
  // magnitude numbers lose resolution (rounded to zero).
  BfpFormat f(5, 3, 0);  // 3 mantissa bits, whole-tensor block
  Tensor t({3}, {100.0f, 1.0f, 0.001f});
  Tensor q = f.real_to_format_tensor(t);
  EXPECT_NEAR(q[0], 100.0f, 100.0f / 8);  // near max: representable
  EXPECT_EQ(q[2], 0.0f);                  // tiny vs block max: flushed
}

TEST(Bfp, QuantizedValuesLieOnBlockGrid) {
  BfpFormat f(5, 5, 8);
  Rng rng(21);
  Tensor t = rng.normal_tensor({64}, 0.0f, 3.0f);
  Tensor q = f.real_to_format_tensor(t);
  for (int64_t i = 0; i < t.numel(); ++i) {
    const int se = f.shared_exponent(i / 8);
    const float step = std::ldexp(1.0f, se + 1 - 5);
    const float code = q[i] / step;
    EXPECT_NEAR(code, std::nearbyintf(code), 1e-3f);
    EXPECT_LE(std::fabs(code), 31.0f);  // 2^5 - 1
  }
}

TEST(Bfp, ElementCodingRoundTripsWithBlockContext) {
  BfpFormat f(5, 5, 8);
  Rng rng(22);
  Tensor t = rng.normal_tensor({32}, 0.0f, 2.0f);
  Tensor q = f.real_to_format_tensor(t);
  for (int64_t i = 0; i < t.numel(); ++i) {
    const BitString b = f.real_to_format_at(q[i], i);
    EXPECT_EQ(f.format_to_real_at(b, i), q[i]);
  }
}

TEST(Bfp, ContextFreeScalarUsesExponentZero) {
  BfpFormat f(5, 5, 8);
  // value 1.0 with se=0: step = 2^(1-5) = 1/16, code 16
  const BitString b = f.real_to_format(1.0f);
  EXPECT_EQ(b.value() & 0x1Fu, 16u);
  EXPECT_EQ(f.format_to_real(b), 1.0f);
}

TEST(Bfp, MetadataFieldsDescribeRegisters) {
  BfpFormat f(5, 5, 4);
  Tensor t = Tensor::ones({12});
  (void)f.real_to_format_tensor(t);
  const auto fields = f.metadata_fields();
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0].name, "shared_exponent");
  EXPECT_EQ(fields[0].bit_width, 5);
  EXPECT_EQ(fields[0].count, 3);  // ceil(12 / 4)
}

TEST(Bfp, MetadataFlipScalesWholeBlockOnly) {
  // THE paper's headline effect: one shared-exponent bit flip rescales
  // every value of its block (multi-bit-flip equivalent), leaving other
  // blocks untouched.
  BfpFormat f(5, 5, 4);
  Tensor t({8}, {1.0f, 0.5f, -0.25f, 0.75f, 2.0f, 1.5f, -1.0f, 0.5f});
  Tensor q = f.real_to_format_tensor(t);
  BitString reg = f.read_metadata("shared_exponent", 0);
  reg.flip_bit(0);  // LSB of block 0's exponent: scale by 2 or 1/2
  f.write_metadata("shared_exponent", 0, reg);
  Tensor corrupted = f.decode_last_tensor();
  const float ratio = corrupted[0] / q[0];
  EXPECT_TRUE(std::fabs(ratio - 2.0f) < 1e-5f ||
              std::fabs(ratio - 0.5f) < 1e-5f);
  for (int64_t i = 0; i < 4; ++i) {
    if (q[i] != 0.0f) {
      EXPECT_NEAR(corrupted[i] / q[i], ratio, 1e-5f);
    }
  }
  for (int64_t i = 4; i < 8; ++i) {
    EXPECT_EQ(corrupted[i], q[i]);  // block 1 untouched
  }
}

TEST(Bfp, MetadataHighBitFlipIsCatastrophic) {
  BfpFormat f(5, 5, 0);
  Tensor t({4}, {1.0f, 0.5f, 0.25f, 0.75f});
  Tensor q = f.real_to_format_tensor(t);
  BitString reg = f.read_metadata("shared_exponent", 0);
  reg.flip_bit(4);  // MSB of the 5-bit exponent: scale by 2^16
  f.write_metadata("shared_exponent", 0, reg);
  Tensor corrupted = f.decode_last_tensor();
  const float ratio = std::fabs(corrupted[0] / q[0]);
  EXPECT_TRUE(ratio > 1e4f || ratio < 1e-4f);
}

TEST(Bfp, MetadataErrorsAreChecked) {
  BfpFormat f(5, 5, 4);
  EXPECT_THROW(f.read_metadata("shared_exponent", 0), std::logic_error);
  Tensor t = Tensor::ones({4});
  (void)f.real_to_format_tensor(t);
  EXPECT_THROW(f.read_metadata("nope", 0), std::logic_error);
  EXPECT_THROW(f.read_metadata("shared_exponent", 5), std::logic_error);
  EXPECT_THROW(f.write_metadata("shared_exponent", 0, BitString(0, 3)),
               std::logic_error);
}

TEST(Bfp, ScalarContextRequiresConversion) {
  BfpFormat f(5, 5, 4);
  EXPECT_THROW(f.real_to_format_at(1.0f, 0), std::logic_error);
  EXPECT_THROW(f.decode_last_tensor(), std::logic_error);
}

TEST(Bfp, SignBitFlipNegatesValue) {
  BfpFormat f(5, 5, 4);
  Tensor t({4}, {1.0f, 0.5f, 0.25f, 0.75f});
  Tensor q = f.real_to_format_tensor(t);
  BitString b = f.real_to_format_at(q[0], 0);
  b.flip_bit(5);  // sign bit (above 5 mantissa bits)
  EXPECT_EQ(f.format_to_real_at(b, 0), -q[0]);
}

TEST(Bfp, DynamicRange) {
  BfpFormat f(5, 5, 16);
  // se range: [-15, 16]; max = 31 * 2^(16+1-5); min = 2^(-15+1-5)
  EXPECT_EQ(f.abs_max(), 31.0 * std::ldexp(1.0, 12));
  EXPECT_EQ(f.abs_min(), std::ldexp(1.0, -19));
  EXPECT_GT(f.dynamic_range_db(), 0.0);
}

class BfpGrid
    : public ::testing::TestWithParam<std::tuple<int, int, int64_t>> {};

TEST_P(BfpGrid, IdempotentAndBounded) {
  const auto [e, m, block] = GetParam();
  BfpFormat f(e, m, block);
  Rng rng(80 + e * 7 + m);
  Tensor t = rng.normal_tensor({96}, 0.0f, 10.0f);
  Tensor q = f.real_to_format_tensor(t);
  // idempotence: re-quantising the quantised tensor is a fixed point
  BfpFormat f2(e, m, block);
  Tensor q2 = f2.real_to_format_tensor(q);
  EXPECT_TRUE(q2.allclose(q, 1e-6f));
  // every element bounded by its block's max
  const int64_t eb = (block == 0) ? 96 : block;
  for (int64_t i = 0; i < q.numel(); ++i) {
    const int se = f.shared_exponent(i / eb);
    EXPECT_LE(std::fabs(q[i]), std::ldexp(1.0f, se + 1) + 1e-6f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BfpGrid,
    ::testing::Values(std::tuple{5, 5, int64_t{16}},
                      std::tuple{8, 7, int64_t{16}},
                      std::tuple{5, 3, int64_t{8}},
                      std::tuple{4, 5, int64_t{32}},
                      std::tuple{5, 5, int64_t{0}},
                      std::tuple{2, 2, int64_t{4}}),
    [](const auto& info) {
      return "e" + std::to_string(std::get<0>(info.param)) + "m" +
             std::to_string(std::get<1>(info.param)) + "b" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace ge::fmt
