// In-place quantization contract (DESIGN.md §"Memory model"): for every
// format family, quantize_tensor_inplace must (a) agree bitwise with the
// value-returning real_to_format_tensor bridge, (b) write through the
// existing buffer when the tensor uniquely owns it — the zero-allocation
// hot path the emulator hook depends on — and (c) detach via COW when the
// storage is shared, never corrupting the other owner.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "formats/format_registry.hpp"
#include "obs/telemetry.hpp"
#include "tensor/tensor.hpp"

namespace ge::fmt {
namespace {

// One spec per family, covering value-only, scaled, and metadata formats.
const std::vector<std::string> kSpecs = {
    "fp_e4m3", "fxp_1_4_3", "int8", "posit_8_1", "bfp_e5m5_b16", "afp_e4m3",
};

Tensor test_input() {
  // Values spanning magnitudes, signs, zero, and a subnormal-ish tail so
  // every format's rounding/clamping paths fire.
  Tensor t({4, 8});
  float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    const float sign = (i % 2 == 0) ? 1.0f : -1.0f;
    p[i] = sign * 0.37f * std::pow(1.9f, static_cast<float>(i % 11) - 5.0f);
  }
  p[0] = 0.0f;
  return t;
}

TEST(InplaceQuant, MatchesValueReturningBridge) {
  for (const auto& spec : kSpecs) {
    const Tensor input = test_input();
    // Two fresh instances: metadata registers are per-instance state and
    // must not leak between the two paths.
    auto f1 = make_format(spec);
    auto f2 = make_format(spec);
    const Tensor bridged = f1->real_to_format_tensor(input);
    Tensor inplace = input.clone();
    f2->quantize_tensor_inplace(inplace);
    EXPECT_TRUE(bridged.equals(inplace)) << spec;
  }
}

TEST(InplaceQuant, UniqueOwnerKeepsItsBuffer) {
  for (const auto& spec : kSpecs) {
    auto f = make_format(spec);
    Tensor t = test_input();
    const float* before = t.cdata();
    f->quantize_tensor_inplace(t);
    EXPECT_EQ(t.cdata(), before) << spec << ": in-place path reallocated";
  }
}

TEST(InplaceQuant, SharedStorageDetachesAndPreservesSource) {
  for (const auto& spec : kSpecs) {
    auto f = make_format(spec);
    const Tensor original = test_input();
    Tensor shared = original;  // O(1) share
    f->quantize_tensor_inplace(shared);
    EXPECT_FALSE(shared.shares_storage_with(original)) << spec;
    EXPECT_TRUE(original.equals(test_input()))
        << spec << ": in-place quantization wrote through a shared buffer";
  }
}

TEST(InplaceQuant, BridgeSharesUntilQuantizerWrites) {
  // real_to_format_tensor is now implemented on top of the in-place kernel:
  // the input must come back untouched (the kernel's first write detaches).
  for (const auto& spec : kSpecs) {
    auto f = make_format(spec);
    const Tensor input = test_input();
    const Tensor out = f->real_to_format_tensor(input);
    EXPECT_TRUE(input.equals(test_input())) << spec;
    EXPECT_FALSE(out.shares_storage_with(input)) << spec;
  }
}

TEST(InplaceQuant, MetadataCapturedForDecode) {
  // Metadata formats must capture their registers from the in-place path
  // too: decode_last_tensor after an uncorrupted round trip reproduces the
  // quantized tensor exactly.
  for (const auto& spec : {std::string("bfp_e5m5_b16"), std::string("afp_e4m3"),
                           std::string("int8")}) {
    auto f = make_format(spec);
    if (!f->has_metadata()) continue;
    Tensor t = test_input();
    f->quantize_tensor_inplace(t);
    EXPECT_TRUE(f->decode_last_tensor().equals(t)) << spec;
  }
}

TEST(InplaceQuant, HotLoopAvoidsCowAfterFirstPass) {
  // Steady state of the emulator hook: a uniquely-owned tensor quantized
  // repeatedly must never detach (no COW copies) — the whole point of the
  // in-place refactor.
  auto f = make_format("fp_e4m3");
  Tensor t = test_input();
  f->quantize_tensor_inplace(t);  // first pass may capture metadata etc.
  const uint64_t cow_before = obs::counter_value(obs::Counter::kCowCopies);
  for (int i = 0; i < 8; ++i) f->quantize_tensor_inplace(t);
  EXPECT_EQ(obs::counter_value(obs::Counter::kCowCopies), cow_before);
}

TEST(InplaceQuant, EmptyTensorIsANoOp) {
  for (const auto& spec : kSpecs) {
    if (spec == "bfp_e5m5_b16") continue;  // bfp requires a block multiple
    auto f = make_format(spec);
    Tensor t;
    EXPECT_NO_THROW(f->quantize_tensor_inplace(t)) << spec;
    EXPECT_EQ(t.numel(), 0) << spec;
  }
}

}  // namespace
}  // namespace ge::fmt
