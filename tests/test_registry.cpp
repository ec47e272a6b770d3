// Format registry: the spec-string surface of the tool.
#include <gtest/gtest.h>

#include "formats/afp.hpp"
#include "formats/bfp.hpp"
#include "formats/format_registry.hpp"
#include "formats/fp.hpp"
#include "formats/fxp.hpp"
#include "formats/intq.hpp"

namespace ge::fmt {
namespace {

TEST(Registry, ParsesFp) {
  auto f = make_format("fp_e4m3");
  EXPECT_EQ(f->bit_width(), 8);
  EXPECT_EQ(f->spec(), "fp_e4m3");
  EXPECT_NE(dynamic_cast<FloatFormat*>(f.get()), nullptr);
}

TEST(Registry, ParsesFpOptions) {
  auto nodn = make_format("fp_e5m10_nodn");
  EXPECT_EQ(nodn->spec(), "fp_e5m10_nodn");
  auto sat = make_format("fp_e4m3_sat");
  EXPECT_EQ(sat->spec(), "fp_e4m3_sat");
  auto both = make_format("fp_e4m3_nodn_sat");
  EXPECT_EQ(both->spec(), "fp_e4m3_nodn_sat");
}

TEST(Registry, ParsesFxp) {
  auto f = make_format("fxp_1_3_12");
  EXPECT_EQ(f->bit_width(), 16);
  EXPECT_NE(dynamic_cast<FxpFormat*>(f.get()), nullptr);
}

TEST(Registry, ParsesInt) {
  auto f = make_format("int8");
  EXPECT_EQ(f->bit_width(), 8);
  EXPECT_NE(dynamic_cast<IntFormat*>(f.get()), nullptr);
}

TEST(Registry, ParsesBfp) {
  auto f = make_format("bfp_e5m5_b16");
  auto* bfp = dynamic_cast<BfpFormat*>(f.get());
  ASSERT_NE(bfp, nullptr);
  EXPECT_EQ(bfp->exp_bits(), 5);
  EXPECT_EQ(bfp->man_bits(), 5);
  EXPECT_EQ(bfp->block_size(), 16);
  auto whole = make_format("bfp_e8m7_btensor");
  EXPECT_EQ(dynamic_cast<BfpFormat*>(whole.get())->block_size(), 0);
}

TEST(Registry, ParsesAfp) {
  auto f = make_format("afp_e4m3");
  EXPECT_NE(dynamic_cast<AfpFormat*>(f.get()), nullptr);
  auto dn = make_format("afp_e4m3_dn");
  EXPECT_EQ(dn->spec(), "afp_e4m3_dn");
}

struct AliasCase {
  const char* alias;
  const char* resolved;
};

class RegistryAlias : public ::testing::TestWithParam<AliasCase> {};

TEST_P(RegistryAlias, ResolvesToCanonicalSpec) {
  auto f = make_format(GetParam().alias);
  EXPECT_EQ(f->spec(), GetParam().resolved);
}

INSTANTIATE_TEST_SUITE_P(
    Aliases, RegistryAlias,
    ::testing::Values(AliasCase{"fp32", "fp_e8m23"},
                      AliasCase{"fp16", "fp_e5m10"},
                      AliasCase{"half", "fp_e5m10"},
                      AliasCase{"bfloat16", "fp_e8m7"},
                      AliasCase{"bfloat", "fp_e8m7"},
                      AliasCase{"tf32", "fp_e8m10"},
                      AliasCase{"dlfloat", "fp_e6m9"},
                      AliasCase{"fp8_e4m3", "fp_e4m3"},
                      AliasCase{"fp8_e5m2", "fp_e5m2"}),
    [](const auto& info) { return std::string(info.param.alias); });

class RegistryReject : public ::testing::TestWithParam<const char*> {};

TEST_P(RegistryReject, ThrowsOnMalformedSpec) {
  EXPECT_THROW(make_format(GetParam()), std::invalid_argument);
  EXPECT_FALSE(is_valid_spec(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, RegistryReject,
    ::testing::Values("", "fp", "fp_e4", "fp_e4m", "fp_e4m3_bogus", "fpe4m3",
                      "fxp_1_3", "fxp_2_3_4", "intx", "int", "bfp_e5m5",
                      "bfp_e5m5_b", "afp_e4", "float32", "fp_e4m3x",
                      "int8 ", "fp_e99m3", "int99", "bfp_e5m99_b16"));

TEST(Registry, IsValidSpecAcceptsGoodSpecs) {
  for (const char* s :
       {"fp_e8m23", "fp16", "fxp_1_15_16", "int8", "bfp_e5m5_b16",
        "afp_e4m3", "bfp_e8m7_btensor"}) {
    EXPECT_TRUE(is_valid_spec(s)) << s;
  }
}

TEST(Registry, KnownAliasesAllParse) {
  for (const auto& a : known_aliases()) {
    EXPECT_NO_THROW(make_format(a)) << a;
  }
}

TEST(Registry, RepeatedMakeFormatReturnsFreshState) {
  // make_format caches a parsed prototype per spec and clones it; the
  // clone must carry no tensor state from earlier uses of the same spec.
  auto first = make_format("int8");
  Tensor t({4});
  for (int64_t i = 0; i < 4; ++i) t[i] = float(i + 1);
  (void)first->real_to_format_tensor(t);
  EXPECT_NO_THROW(first->decode_last_tensor());
  auto second = make_format("int8");
  EXPECT_THROW(second->decode_last_tensor(), std::logic_error);
}

}  // namespace
}  // namespace ge::fmt
