// Float-math reference quantisers: the frexp / ldexp / nearbyint bodies the
// formats used before their integer round-to-nearest-even kernel
// (src/formats/rne.hpp). They live only here, as the oracle every kernel is
// gated on bitwise (tests/test_format_oracle.cpp).
//
// Known oracle defect, kept on purpose: where the grid quantum 2^q falls
// below the float32 range (q < -149: fp_e8m30 near 1e-38, fp_e11m52, AFP
// e8m23 with denormals at a high bias) pow2f(q) underflows to 0 and
// round_to_step computes (x / 0) * 0 = NaN. Those inputs are the only
// mismatches the oracle tests allow; the kernel returns x exactly there.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "formats/afp.hpp"
#include "formats/fp.hpp"
#include "formats/fxp.hpp"

namespace ge::fmt::oracle {

/// Round-to-nearest-even of x onto the grid {k * step}.
inline float round_to_step(float x, float step) {
  // nearbyint obeys the current rounding mode; the default is
  // round-to-nearest-even, matching IEEE-754.
  return static_cast<float>(std::nearbyint(x / step)) * step;
}

/// floor(log2(|x|)) for finite non-zero x.
inline int floor_log2(float x) {
  int e = 0;
  (void)std::frexp(std::fabs(x), &e);  // |x| = m * 2^e, m in [0.5, 1)
  return e - 1;
}

inline float pow2f(int e) { return std::ldexp(1.0f, e); }

/// FloatFormat::quantize_value.
inline float fp(const FloatFormat& f, float x) {
  const int e_min = 1 - f.bias();
  const int e_max = f.bias();
  const int man_bits = f.man_bits();
  if (std::isnan(x)) return x;
  const float sign = std::signbit(x) ? -1.0f : 1.0f;
  const float ax = std::fabs(x);
  const float mx = static_cast<float>(f.abs_max());
  if (std::isinf(x)) return f.saturate_overflow() ? sign * mx : x;
  if (ax == 0.0f) return sign * 0.0f;

  int e_unb = floor_log2(ax);
  if (e_unb < e_min) {
    if (f.denormals()) {
      return sign * round_to_step(ax, pow2f(e_min - man_bits));
    }
    // No denormals: nearest of {0, min_normal} with ties to zero (even).
    const float min_normal = pow2f(e_min);
    return (ax > min_normal * 0.5f) ? sign * min_normal : sign * 0.0f;
  }
  const float q = round_to_step(ax, pow2f(e_unb - man_bits));
  if (q >= pow2f(e_unb + 1)) e_unb += 1;  // rounding bumped the exponent
  if (e_unb > e_max && q > mx) {
    return f.saturate_overflow()
               ? sign * mx
               : sign * std::numeric_limits<float>::infinity();
  }
  return sign * q;
}

/// AfpFormat::quantize_value under the format's current bias register.
inline float afp(const AfpFormat& f, float x) {
  const int e_min = 1 - f.exp_bias();
  const int e_max = ((1 << f.exp_bits()) - 2) - f.exp_bias();
  const int man_bits = f.man_bits();
  if (std::isnan(x)) return x;
  const float sign = std::signbit(x) ? -1.0f : 1.0f;
  const float ax = std::fabs(x);
  const float mx = static_cast<float>(f.abs_max());
  if (std::isinf(x)) return sign * mx;  // AFP has no Inf: saturate
  if (ax == 0.0f) return sign * 0.0f;

  int e_unb = floor_log2(ax);
  if (e_unb < e_min) {
    if (f.denormals()) {
      return sign * round_to_step(ax, pow2f(e_min - man_bits));
    }
    const float min_normal = pow2f(e_min);
    return (ax > min_normal * 0.5f) ? sign * min_normal : sign * 0.0f;
  }
  const float q = round_to_step(ax, pow2f(e_unb - man_bits));
  if (q >= pow2f(e_unb + 1)) e_unb += 1;
  if (e_unb > e_max || q > mx) return sign * mx;  // saturate
  return sign * q;
}

/// FxpFormat::quantize_value.
inline float fxp(const FxpFormat& f, float x) {
  if (std::isnan(x)) return x;
  const int data_bits = f.int_bits() + f.frac_bits();
  const double min_code = double(-(int64_t{1} << data_bits));
  const double max_code = double((int64_t{1} << data_bits) - 1);
  const double scaled = double(x) * std::ldexp(1.0, f.frac_bits());
  const double code = std::clamp(std::nearbyint(scaled), min_code, max_code);
  return static_cast<float>(code * std::ldexp(1.0, -f.frac_bits()));
}

/// BfpFormat's per-block pass over x[0, n) in place: the shared exponent
/// of the block (returned) and each element's code (written to `codes`).
inline int bfp_block(float* x, int64_t n, int exp_bits, int man_bits,
                     int32_t* codes) {
  const int bias = (1 << (exp_bits - 1)) - 1;
  const int se_min = -bias;
  const int se_max = ((1 << exp_bits) - 1) - bias;
  const auto max_mag = static_cast<float>((1 << man_bits) - 1);
  float block_max = 0.0f;
  for (int64_t i = 0; i < n; ++i) block_max = std::max(block_max, std::fabs(x[i]));
  int se = se_min;
  if (block_max > 0.0f && !std::isnan(block_max)) {
    se = std::clamp(floor_log2(block_max), se_min, se_max);
  }
  const int shift = se + 1 - man_bits;
  for (int64_t i = 0; i < n; ++i) {
    float mag = std::nearbyintf(std::ldexp(std::fabs(x[i]), -shift));
    mag = std::min(mag, max_mag);
    const float code = std::signbit(x[i]) ? -mag : mag;
    // A NaN code converts as x86's cvttss2si does (INT32_MIN), spelled
    // out because the C++ conversion of NaN is undefined.
    codes[i] = std::isnan(code) ? std::numeric_limits<int32_t>::min()
                                : static_cast<int32_t>(code);
    x[i] = std::ldexp(code, shift);
  }
  return se;
}

/// BfpFormat's decode of one code under shared exponent se.
inline float bfp_decode(int32_t code, int se, int man_bits) {
  return std::ldexp(static_cast<float>(code), se + 1 - man_bits);
}

/// IntFormat's per-element code under a fixed scale: the float code.
inline float int_code(float x, float scale, int64_t max_code) {
  const float inv = 1.0f / scale;
  return std::clamp(std::nearbyintf(x * inv), static_cast<float>(-max_code),
                    static_cast<float>(max_code));
}

}  // namespace ge::fmt::oracle
