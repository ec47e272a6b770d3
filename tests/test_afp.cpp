// AfpFormat (AdaptivFloat) conformance: adaptive bias selection, the
// movable representable range, and the exponent-bias metadata register.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "formats/afp.hpp"
#include "tensor/rng.hpp"

namespace ge::fmt {
namespace {

TEST(Afp, RejectsBadParameters) {
  EXPECT_THROW(AfpFormat(1, 3), std::invalid_argument);
  EXPECT_THROW(AfpFormat(9, 3), std::invalid_argument);
  EXPECT_THROW(AfpFormat(4, 0), std::invalid_argument);
}

TEST(Afp, DefaultBiasMatchesTableOne) {
  AfpFormat f(4, 3);  // AFP8 e4m3, standard bias, no denormals
  EXPECT_EQ(f.exp_bias(), 7);
  EXPECT_EQ(f.abs_max(), 240.0);
  EXPECT_NEAR(f.abs_min(), 0.015625, 1e-9);
  EXPECT_NEAR(f.dynamic_range_db(), 83.73, 0.05);
}

TEST(Afp, BiasAdaptsToTensorMaximum) {
  AfpFormat f(4, 3);
  // data max 0.9: e_data = -1; bias = 14 - (-1) = 15, range moves down
  Tensor t({3}, {0.9f, 0.1f, -0.5f});
  (void)f.real_to_format_tensor(t);
  EXPECT_EQ(f.exp_bias(), 15);
  // after adaptation the max representable covers the data snugly
  EXPECT_GE(f.abs_max(), 0.9);
  EXPECT_LE(f.abs_max(), 1.0);
}

TEST(Afp, MovableRangeKeepsSmallTensorsAccurate) {
  // A tensor of tiny values is unrepresentable at the standard bias but
  // accurate after adaptation — AdaptivFloat's raison d'être.
  AfpFormat f(4, 3);
  Rng rng(31);
  Tensor t = rng.uniform_tensor({64}, 1e-4f, 2e-4f);
  Tensor q = f.real_to_format_tensor(t);
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_NEAR(q[i], t[i], t[i] * 0.08f);  // <= ~2^-m relative error
  }
}

TEST(Afp, SaturatesInsteadOfInf) {
  AfpFormat f(4, 3);
  Tensor t({2}, {100.0f, 1.0f});
  Tensor q = f.real_to_format_tensor(t);
  EXPECT_TRUE(std::isfinite(q[0]));
  const float mx = static_cast<float>(f.abs_max());
  EXPECT_EQ(f.quantize_value(1e30f), mx);
  EXPECT_EQ(f.quantize_value(-1e30f), -mx);
  (void)q;
}

TEST(Afp, EncodeDecodeRoundTripsQuantized) {
  AfpFormat f(4, 3);
  Rng rng(32);
  Tensor t = rng.normal_tensor({128}, 0.0f, 2.0f);
  Tensor q = f.real_to_format_tensor(t);
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_EQ(f.format_to_real(f.real_to_format(q[i])), q[i]);
  }
}

TEST(Afp, ReplayUnderUnchangedMetadataIsIdentity) {
  // decode_last_tensor re-quantises the captured inputs under the current
  // bias; with an uncorrupted register it must reproduce the quantised
  // tensor exactly.
  AfpFormat f(4, 3);
  Rng rng(33);
  Tensor t = rng.normal_tensor({256}, 0.0f, 3.0f);
  Tensor q = f.real_to_format_tensor(t);
  Tensor decoded = f.decode_last_tensor();
  EXPECT_TRUE(decoded.equals(q));
}

TEST(Afp, MetadataRegisterReadsBiasOffset) {
  AfpFormat f(4, 3);
  Tensor t({1}, {1.0f});  // e_data = 0 -> bias = 14 = standard(7) + 7
  (void)f.real_to_format_tensor(t);
  EXPECT_EQ(f.exp_bias(), 14);
  EXPECT_EQ(f.bias_offset(), 7);
  const auto fields = f.metadata_fields();
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0].name, "exp_bias");
  EXPECT_EQ(fields[0].bit_width, AfpFormat::kOffsetBits);
  EXPECT_EQ(f.read_metadata("exp_bias", 0).value(), 7u);
}

TEST(Afp, BiasOffsetClampsToRegisterRange) {
  // gigantic max -> desired offset far below the register floor
  AfpFormat f(4, 3);
  Tensor t({1}, {1e30f});
  (void)f.real_to_format_tensor(t);
  EXPECT_EQ(f.bias_offset(), AfpFormat::kOffsetMin);
  // microscopic max -> clamped at the ceiling, range still reaches down
  AfpFormat g(4, 3);
  Tensor u({1}, {1e-7f});
  (void)g.real_to_format_tensor(u);
  EXPECT_EQ(g.bias_offset(), AfpFormat::kOffsetMax);
}

TEST(Afp, MetadataFaultMovesRangeDownAndClips) {
  // Persistent-register fault semantics: a bias *increase* moves the
  // representable range down; every value above the new max clips to it
  // (bounded corruption — the reason AFP metadata faults are milder than
  // BFP's, §IV-C).
  AfpFormat f(4, 3);
  Tensor t({4}, {1.0f, 0.5f, -0.75f, 0.25f});
  Tensor q = f.real_to_format_tensor(t);
  EXPECT_EQ(f.bias_offset(), 7);  // e_data = 0
  BitString reg = f.read_metadata("exp_bias", 0);
  reg.flip_bit(3);  // offset 7 -> 15: bias up by 8, range down 8 binades
  f.write_metadata("exp_bias", 0, reg);
  const float new_max = static_cast<float>(f.abs_max());
  EXPECT_LT(new_max, 0.01f);
  Tensor corrupted = f.decode_last_tensor();
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(std::fabs(corrupted[i]), new_max, 1e-6f) << i;
    EXPECT_EQ(std::signbit(corrupted[i]), std::signbit(q[i]));
  }
}

TEST(Afp, MetadataFaultMovesRangeUpAndFlushes) {
  // A bias *decrease* moves the range up; values below the new minimum
  // flush to zero while in-range values survive.
  AfpFormat f(4, 3);
  // offset becomes 7 (e_data = 0); flipping bit 2 gives offset 3:
  // bias 10, e_min = -9 -> values below ~2^-10 flush
  Tensor t({3}, {1.0f, 0.5f, 0.0005f});
  Tensor q = f.real_to_format_tensor(t);
  EXPECT_GT(std::fabs(q[2]), 0.0f);  // representable before the fault
  BitString reg = f.read_metadata("exp_bias", 0);
  reg.flip_bit(2);
  f.write_metadata("exp_bias", 0, reg);
  Tensor corrupted = f.decode_last_tensor();
  EXPECT_EQ(corrupted[0], q[0]);  // in-range values unaffected
  EXPECT_EQ(corrupted[2], 0.0f);  // below the moved range: flushed
}

TEST(Afp, MetadataRegisterIsTwosComplement) {
  AfpFormat f(4, 3);
  Tensor t({1}, {1e30f});  // huge max -> negative offset (clamped)
  (void)f.real_to_format_tensor(t);
  EXPECT_LT(f.bias_offset(), 0);
  const BitString reg = f.read_metadata("exp_bias", 0);
  AfpFormat g(4, 3);
  Tensor t2({1}, {1.0f});
  (void)g.real_to_format_tensor(t2);
  g.write_metadata("exp_bias", 0, reg);
  EXPECT_EQ(g.exp_bias(), f.exp_bias());  // round-trips through the register
}

TEST(Afp, MetadataErrorsAreChecked) {
  AfpFormat f(4, 3);
  EXPECT_THROW(f.read_metadata("scale", 0), std::logic_error);
  EXPECT_THROW(f.write_metadata("exp_bias", 1,
                                BitString(0, AfpFormat::kOffsetBits)),
               std::logic_error);
  EXPECT_THROW(f.write_metadata("exp_bias", 0, BitString(0, 8)),
               std::logic_error);
  EXPECT_THROW(f.decode_last_tensor(), std::logic_error);
}

TEST(Afp, WideFormatsNeverFabricateNaN) {
  // e8m23 with denormals at offset +15: e_min - man_bits = -141 - 23 is
  // below float32's 2^-149, where the old float path's quantum underflowed
  // to 0 and made NaN. The grid is finer than float32 there: exact.
  AfpFormat f(8, 23, AfpFormat::Options{true});
  Tensor t({1}, {1.0f});
  f.quantize_tensor_inplace(t);
  f.write_metadata("exp_bias", 0, BitString(15, AfpFormat::kOffsetBits));
  ASSERT_EQ(f.bias_offset(), 15);
  const float lim_denorm = std::numeric_limits<float>::denorm_min();
  const float lim_min = std::numeric_limits<float>::min();
  for (const float x : {lim_denorm, lim_min - lim_denorm, lim_min, 1e-40f,
                        1e-38f, 1.0f}) {
    for (const float v : {x, -x}) EXPECT_EQ(f.quantize_value(v), v);
  }
  // max: saturates at the moved abs_max, never NaN
  const float mx = static_cast<float>(f.abs_max());
  EXPECT_EQ(f.quantize_value(std::numeric_limits<float>::max()), mx);
  // The persistent-register replay runs the same kernel.
  Tensor u({3}, {lim_denorm, 1e-40f, 1.0f});
  f.quantize_tensor_inplace(u);
  f.write_metadata("exp_bias", 0, BitString(15, AfpFormat::kOffsetBits));
  const Tensor q = f.decode_last_tensor();
  EXPECT_EQ(q[0], lim_denorm);
  EXPECT_EQ(q[1], 1e-40f);
  EXPECT_EQ(q[2], 1.0f);
}

TEST(Afp, DenormalOptionExtendsRangeDown) {
  AfpFormat with_dn(4, 3, {.denormals = true});
  AfpFormat without(4, 3);
  EXPECT_LT(with_dn.abs_min(), without.abs_min());
  EXPECT_EQ(with_dn.spec(), "afp_e4m3_dn");
  EXPECT_EQ(without.spec(), "afp_e4m3");
}

class AfpGrid : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(AfpGrid, AdaptationNeverWorseThanStandardBiasOnMaxAlignedData) {
  const auto [e, m] = GetParam();
  Rng rng(90 + e * 3 + m);
  // Data in an arbitrary decade; adapted AFP must keep relative error
  // bounded by ~2^-m regardless of the decade.
  for (float scale : {1e-3f, 1.0f, 1e3f}) {
    AfpFormat f(e, m);
    Tensor t = rng.uniform_tensor({64}, 0.5f * scale, scale);
    Tensor q = f.real_to_format_tensor(t);
    for (int64_t i = 0; i < t.numel(); ++i) {
      EXPECT_NEAR(q[i], t[i], t[i] * (1.5f / std::ldexp(1.0f, m)))
          << "e" << e << "m" << m << " scale " << scale;
    }
  }
}

TEST_P(AfpGrid, IdempotentAndSymmetric) {
  const auto [e, m] = GetParam();
  AfpFormat f(e, m);
  Tensor ctx({1}, {4.0f});
  (void)f.real_to_format_tensor(ctx);  // fix a bias context
  Rng rng(95 + e * 3 + m);
  for (int i = 0; i < 200; ++i) {
    const float x = rng.normal(0.0f, 2.0f);
    const float q = f.quantize_value(x);
    EXPECT_EQ(f.quantize_value(q), q);
    EXPECT_EQ(f.quantize_value(-x), -q);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, AfpGrid,
                         ::testing::Values(std::pair{4, 3}, std::pair{5, 2},
                                           std::pair{4, 4}, std::pair{2, 5},
                                           std::pair{5, 10}, std::pair{3, 2}),
                         [](const auto& info) {
                           return "e" + std::to_string(info.param.first) +
                                  "m" + std::to_string(info.param.second);
                         });

}  // namespace
}  // namespace ge::fmt
