// Bitwise gate of the integer quantize kernels (src/formats/rne.hpp) against
// the float-math oracle (format_oracle.hpp), through each format's
// production tensor path.
//
// Every output must equal the oracle's bit for bit, NaN payloads included.
// The one allowed mismatch is an input the oracle itself turns from a
// non-NaN into NaN (its pow2f underflow, see format_oracle.hpp); those are
// counted and printed, and must be zero for every Fig. 3 format.
//
// Sampled sweep (tier-1): every 4099th float32 bit pattern plus the special
// classes. DISABLED_Exhaustive* runs the same cases over all 2^32 patterns:
//   test_format_oracle --gtest_also_run_disabled_tests
//                      --gtest_filter='*Exhaustive*'
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "format_oracle.hpp"
#include "formats/bfp.hpp"
#include "formats/intq.hpp"
#include "parallel/thread_pool.hpp"

namespace ge::fmt {
namespace {

float from_bits(uint32_t u) { return std::bit_cast<float>(u); }
uint32_t to_bits(float x) { return std::bit_cast<uint32_t>(x); }

/// One quantised element: the input it came from, the production output
/// and the oracle output.
struct Sample {
  std::vector<float> x, got, want;
  void add(float in, float g, float w) {
    x.push_back(in);
    got.push_back(g);
    want.push_back(w);
  }
};

struct Case {
  std::string name;
  bool fig3;  ///< a Fig. 3 format: not even oracle-NaN mismatches allowed
  std::function<void(const std::vector<float>&, Sample&)> run;
};

Tensor tensor_of(const std::vector<float>& in) {
  return Tensor({static_cast<int64_t>(in.size())}, in);
}

Case fp_case(const std::string& name, int e, int m, FloatFormat::Options o,
             bool fig3) {
  return {name, fig3, [=](const std::vector<float>& in, Sample& s) {
            FloatFormat f(e, m, o);
            Tensor t = tensor_of(in);
            f.quantize_tensor_inplace(t);
            for (size_t i = 0; i < in.size(); ++i) {
              const float want = oracle::fp(f, in[i]);
              s.add(in[i], t[static_cast<int64_t>(i)], want);
              s.add(in[i], f.quantize_value(in[i]), want);
            }
          }};
}

/// AFP with its bias register pinned at `offset`: the persistent-register
/// re-quantisation (decode_last_tensor) runs the tensor kernel under it.
Case afp_case(const std::string& name, int e, int m, bool dn, int offset,
              bool fig3) {
  return {name, fig3, [=](const std::vector<float>& in, Sample& s) {
            AfpFormat f(e, m, AfpFormat::Options{dn});
            Tensor t = tensor_of(in);
            f.quantize_tensor_inplace(t);
            const auto reg = static_cast<uint64_t>(offset) &
                             ((uint64_t{1} << AfpFormat::kOffsetBits) - 1);
            f.write_metadata("exp_bias", 0,
                             BitString(reg, AfpFormat::kOffsetBits));
            ASSERT_EQ(f.bias_offset(), offset);
            const Tensor q = f.decode_last_tensor();
            for (size_t i = 0; i < in.size(); ++i) {
              s.add(in[i], q[static_cast<int64_t>(i)], oracle::afp(f, in[i]));
            }
          }};
}

Case fxp_case(const std::string& name, int i_bits, int f_bits, bool fig3) {
  return {name, fig3, [=](const std::vector<float>& in, Sample& s) {
            FxpFormat f(i_bits, f_bits);
            Tensor t = tensor_of(in);
            f.quantize_tensor_inplace(t);
            for (size_t i = 0; i < in.size(); ++i) {
              s.add(in[i], t[static_cast<int64_t>(i)], oracle::fxp(f, in[i]));
            }
          }};
}

/// BFP e8m7, blocks of 16: an anchor 2^anchor_se followed by 15 swept
/// inputs, so the shared exponent is the anchor's wherever the inputs lie
/// below it (no anchor: the inputs set it). Checks the quantised values,
/// the shared exponents, and the metadata re-decode of the stored codes.
Case bfp_case(const std::string& name, bool anchored, int anchor_se) {
  return {name, true, [=](const std::vector<float>& in, Sample& s) {
            constexpr int kE = 8, kM = 7;
            constexpr int64_t kB = 16;
            std::vector<float> blocks;
            for (size_t i = 0; i < in.size(); i += kB - 1) {
              blocks.push_back(anchored ? std::ldexp(1.0f, anchor_se) : 0.0f);
              for (size_t j = i; j < std::min(in.size(), i + kB - 1); ++j) {
                blocks.push_back(in[j]);
              }
            }
            BfpFormat f(kE, kM, kB);
            Tensor t = tensor_of(blocks);
            f.quantize_tensor_inplace(t);
            const Tensor decoded = f.decode_last_tensor();
            std::vector<float> want = blocks;
            std::vector<int32_t> codes(blocks.size());
            const auto n = static_cast<int64_t>(blocks.size());
            for (int64_t lo = 0; lo < n; lo += kB) {
              const int64_t len = std::min(kB, n - lo);
              const int se = oracle::bfp_block(want.data() + lo, len, kE, kM,
                                               codes.data() + lo);
              ASSERT_EQ(f.shared_exponent(lo / kB), se) << "block " << lo / kB;
              for (int64_t i = lo; i < lo + len; ++i) {
                const auto k = static_cast<size_t>(i);
                s.add(blocks[k], t[i], want[k]);
                s.add(blocks[k], decoded[i],
                      oracle::bfp_decode(codes[k], se, kM));
              }
            }
          }};
}

/// INT8 with the scale pinned by set_range: values and the re-decode.
Case int_case(const std::string& name, float range) {
  return {name, true, [=](const std::vector<float>& in, Sample& s) {
            IntFormat f(8);
            f.set_range(range);
            Tensor t = tensor_of(in);
            f.quantize_tensor_inplace(t);
            const Tensor decoded = f.decode_last_tensor();
            for (size_t i = 0; i < in.size(); ++i) {
              const float code = oracle::int_code(in[i], f.scale(), 127);
              const auto k = static_cast<int64_t>(i);
              s.add(in[i], t[k], code * f.scale());
              // A NaN code's stored integer is platform-defined; only
              // finite codes have a defined re-decode.
              if (!std::isnan(code)) {
                s.add(in[i], decoded[k],
                      static_cast<float>(static_cast<int32_t>(code)) *
                          f.scale());
              }
            }
          }};
}

std::vector<Case> all_cases() {
  const FloatFormat::Options dn{};
  FloatFormat::Options nodn_sat;
  nodn_sat.denormals = false;
  nodn_sat.saturate_overflow = true;
  return {
      fp_case("fp16", 5, 10, dn, true),
      fp_case("bf16", 8, 7, dn, true),
      fp_case("fp_e4m3", 4, 3, dn, false),
      fp_case("fp_e5m2", 5, 2, dn, false),
      fp_case("tf32", 8, 10, dn, false),
      fp_case("fp32", 8, 23, dn, true),
      fp_case("fp_e4m3_nodn_sat", 4, 3, nodn_sat, false),
      // Wider than float32: the oracle's NaN class (allowed, counted).
      fp_case("fp_e8m30", 8, 30, dn, false),
      afp_case("afp_e4m3@-16", 4, 3, false, -16, true),
      afp_case("afp_e4m3@0", 4, 3, false, 0, true),
      afp_case("afp_e4m3@15", 4, 3, false, 15, true),
      afp_case("afp_e8m23_dn@15", 8, 23, true, 15, false),
      fxp_case("fxp_1_3_12", 3, 12, true),
      fxp_case("fxp_1_15_16", 15, 16, false),
      bfp_case("bfp_e8m7_b16", false, 0),
      bfp_case("bfp_e8m7_b16@se-100", true, -100),
      bfp_case("bfp_e8m7_b16@se0", true, 0),
      bfp_case("bfp_e8m7_b16@se100", true, 100),
      int_case("int8@range127", 127.0f),  // scale 1: the code ties
      int_case("int8@range1", 1.0f),
      int_case("int8@range3e-3", 3e-3f),
      int_case("int8@range6e4", 6e4f),
  };
}

/// The special float32 classes every sweep includes.
std::vector<float> special_inputs() {
  std::vector<uint32_t> u = {
      0x00000000u, 0x80000000u,  // ±0
      0x00800000u, 0x80800000u,  // ±min normal
      0x7F7FFFFFu, 0xFF7FFFFFu,  // ±max normal
      0x7F800000u, 0xFF800000u,  // ±Inf
      0x7FC00000u, 0xFFC00123u,  // quiet NaNs
      0x7F800001u, 0xFFA00000u,  // signalling NaNs
  };
  for (int k = 0; k < 23; ++k) {  // every denormal exponent, both signs
    u.push_back(1u << k);
    u.push_back(0x80000000u | (1u << k));
    u.push_back((2u << k) - 1);  // all-ones mantissa below it
  }
  // Exact ties at every exponent and every dropped-bit count, with an even
  // and an odd kept part, so each grid's ties-to-even rule is exercised.
  for (uint32_t e = 0; e < 255; ++e) {
    for (int s = 1; s <= 23; ++s) {
      for (uint32_t m : {1u, 3u}) {
        const uint32_t b = (e << 23) | ((m << (s - 1)) & 0x7FFFFFu);
        u.push_back(b);
        u.push_back(0x80000000u | b);
      }
    }
  }
  std::vector<float> out;
  for (uint32_t b : u) out.push_back(from_bits(b));
  return out;
}

struct Tally {
  uint64_t inputs = 0;
  uint64_t mismatches = 0;  ///< not explained by the oracle's NaN defect
  uint64_t oracle_nan = 0;  ///< oracle turned a non-NaN into NaN
  std::vector<std::string> examples;
};

void compare(const Sample& s, Tally& t) {
  for (size_t i = 0; i < s.x.size(); ++i) {
    const uint32_t g = to_bits(s.got[i]);
    const uint32_t w = to_bits(s.want[i]);
    if (g == w) continue;
    if (std::isnan(s.want[i]) && !std::isnan(s.x[i])) {
      ++t.oracle_nan;
      continue;
    }
    ++t.mismatches;
    if (t.examples.size() < 8) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "x=0x%08x got=0x%08x want=0x%08x",
                    to_bits(s.x[i]), g, w);
      t.examples.emplace_back(buf);
    }
  }
}

/// Inputs [first, first + count) of the sweep with the given stride, as
/// float32 bit patterns (k * stride for k in range, below 2^32).
std::vector<float> strided_inputs(uint64_t first, uint64_t count,
                                  uint64_t stride) {
  std::vector<float> in;
  in.reserve(static_cast<size_t>(count));
  for (uint64_t k = first; k < first + count; ++k) {
    in.push_back(from_bits(static_cast<uint32_t>(k * stride)));
  }
  return in;
}

void report_and_check(const std::vector<Case>& cases,
                      const std::vector<Tally>& tallies) {
  for (size_t c = 0; c < cases.size(); ++c) {
    const Tally& t = tallies[c];
    std::printf("[oracle] %-22s %12llu outputs  %llu mismatches  "
                "%llu oracle-NaN\n",
                cases[c].name.c_str(),
                static_cast<unsigned long long>(t.inputs),
                static_cast<unsigned long long>(t.mismatches),
                static_cast<unsigned long long>(t.oracle_nan));
    EXPECT_EQ(t.mismatches, 0u) << cases[c].name;
    for (const std::string& e : t.examples) {
      ADD_FAILURE() << cases[c].name << ": " << e;
    }
    if (cases[c].fig3) {
      EXPECT_EQ(t.oracle_nan, 0u) << cases[c].name;
    }
  }
}

/// Run every case over the stride sweep (plus the specials), in batches of
/// `batch` inputs. Batches run serially, so each production kernel chunks
/// across the pool itself, unless `parallel_batches`.
void sweep(uint64_t stride, uint64_t batch, bool parallel_batches) {
  const std::vector<Case> cases = all_cases();
  const uint64_t total = ((uint64_t{1} << 32) + stride - 1) / stride;
  const uint64_t nbatches = (total + batch - 1) / batch;
  // One tally per (batch, case), folded afterwards: no shared writes.
  std::vector<std::vector<Tally>> per_batch(
      static_cast<size_t>(nbatches + 1), std::vector<Tally>(cases.size()));
  auto run_batch = [&](uint64_t b) {
    const std::vector<float> in =
        b == nbatches ? special_inputs()
                      : strided_inputs(b * batch,
                                       std::min(batch, total - b * batch),
                                       stride);
    for (size_t c = 0; c < cases.size(); ++c) {
      Sample s;
      cases[c].run(in, s);
      Tally& t = per_batch[static_cast<size_t>(b)][c];
      t.inputs += s.x.size();
      compare(s, t);
    }
  };
  if (parallel_batches) {
    parallel::parallel_for(0, static_cast<int64_t>(nbatches + 1), 1,
                           [&](int64_t lo, int64_t hi) {
                             for (int64_t b = lo; b < hi; ++b) {
                               run_batch(static_cast<uint64_t>(b));
                             }
                           });
  } else {
    for (uint64_t b = 0; b <= nbatches; ++b) run_batch(b);
  }
  std::vector<Tally> tallies(cases.size());
  for (const auto& row : per_batch) {
    for (size_t c = 0; c < cases.size(); ++c) {
      tallies[c].inputs += row[c].inputs;
      tallies[c].mismatches += row[c].mismatches;
      tallies[c].oracle_nan += row[c].oracle_nan;
      for (const std::string& e : row[c].examples) {
        if (tallies[c].examples.size() < 8) tallies[c].examples.push_back(e);
      }
    }
  }
  report_and_check(cases, tallies);
}

TEST(FormatOracle, SampledSweepIsBitExact) {
  sweep(/*stride=*/4099, /*batch=*/1 << 16, /*parallel_batches=*/false);
}

TEST(FormatOracle, DISABLED_ExhaustiveSweepIsBitExact) {
  sweep(/*stride=*/1, /*batch=*/1 << 18, /*parallel_batches=*/true);
}

}  // namespace
}  // namespace ge::fmt
