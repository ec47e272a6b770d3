// Integer round-to-nearest-even on the float32 bit pattern: the one
// production quantize kernel behind FloatFormat, AfpFormat, FxpFormat,
// BfpFormat (per element) and IntFormat (per code).
//
// Every one of those formats maps a real x onto a grid {k * 2^q} and clamps
// the result; they differ only in how the quantum exponent q depends on x
// and where the clamp sits. An RneGrid captures both, computed once per
// format (or once per tensor / block for the metadata-bearing formats):
//
//   q(x) = floor(log2|x|) - man_bits   when floor(log2|x|) >= e_min
//        = q_sub                       otherwise (denormals, flush, or a
//                                      fixed-quantum format: e_min = kFixed)
//
// The contract, for every float32 input (checked bitwise against the
// float-math reference in tests/format_oracle.hpp):
//   - |x| is rounded to the nearest multiple of 2^q(x), ties to even, in
//     exact arithmetic. A grid finer than x's own ulp returns x unchanged,
//     so formats wider than float32 never fabricate values (or NaN).
//   - A rounded magnitude above the clamp (pos_max / neg_max, float32 bits)
//     becomes the clamp when `saturate`, else Inf. Inf inputs behave the
//     same way: Inf stays Inf unless `saturate`.
//   - The sign is carried through untouched, so ±0 stay ±0 and a negative
//     value that rounds to zero becomes -0.
//   - NaN is returned bit-for-bit (payload and signalling bit preserved).
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace ge::fmt {

struct RneGrid {
  /// e_min of a fixed-quantum grid: no float32 reaches the normal range.
  static constexpr int kFixed = 1 << 12;
  static constexpr uint32_t kInfBits = 0x7F800000u;

  int man_bits = 23;          ///< significand bits kept in the normal range
  int e_min = kFixed;         ///< smallest normal exponent
  int q_sub = 0;              ///< quantum exponent below e_min
  uint32_t pos_max = kInfBits;  ///< clamp of positive magnitudes (f32 bits)
  uint32_t neg_max = kInfBits;  ///< clamp of negative magnitudes (f32 bits)
  bool saturate = false;      ///< overflow and Inf clamp instead of -> Inf

  // Normal-range fast path, derived by finish(): a magnitude with bits in
  // [fast_lo, Inf) rounds by one add-and-mask on its own bit pattern.
  uint32_t fast_lo = kInfBits;
  uint32_t fast_shift = 0;
  uint32_t fast_add = 0;
  uint32_t fast_parity = 0;
  uint32_t fast_keep = ~0u;

  /// A floating-point grid: `man_bits` kept bits down to 2^e_min, then the
  /// subnormal quantum 2^(e_min - man_bits), or with `denormals` off the
  /// quantum 2^e_min (nearest of {0, min normal}, ties to zero).
  static RneGrid floating(int man_bits, int e_min, bool denormals,
                          double abs_max, bool saturate) {
    RneGrid g;
    g.man_bits = man_bits;
    g.e_min = e_min;
    g.q_sub = denormals ? e_min - man_bits : e_min;
    g.pos_max = g.neg_max = max_bits(abs_max);
    g.saturate = saturate;
    return g.finish();
  }

  /// A fixed-quantum grid {k * 2^q} clamped to [-neg_max, pos_max].
  static RneGrid fixed(int q, double pos_max, double neg_max) {
    RneGrid g;
    g.q_sub = q;
    g.pos_max = max_bits(pos_max);
    g.neg_max = max_bits(neg_max);
    g.saturate = true;
    return g.finish();
  }

  /// True when the grid maps every float32 to itself (fp_e8m23 and wider
  /// with denormals and no saturation): callers may skip the pass.
  bool identity() const {
    const uint32_t mx = std::min(pos_max, neg_max);
    return man_bits >= 23 && q_sub <= -149 && mx >= 0x7F7FFFFFu &&
           (!saturate || mx == kInfBits);
  }

 private:
  // |m| rounded to float32 as IEEE conversion does: at or past FLT_MAX plus
  // half an ulp it is Inf (wide formats clamp at the float32 edge).
  static uint32_t max_bits(double m) {
    m = std::fabs(m);
    if (m >= 0x1.ffffffp127) return kInfBits;
    return std::bit_cast<uint32_t>(static_cast<float>(m));
  }

  RneGrid finish() {
    const int lo = std::clamp(e_min + 127, 1, 255);
    fast_lo = static_cast<uint32_t>(lo) << 23;
    if (man_bits < 23) {
      fast_shift = static_cast<uint32_t>(23 - man_bits);
      fast_add = (1u << (fast_shift - 1)) - 1;
      fast_parity = 1;
      fast_keep = ~((1u << fast_shift) - 1);
    }
    return *this;
  }
};

/// Bits of |x| (finite) rounded to the nearest multiple of 2^q, ties to
/// even. A result past FLT_MAX comes back as the Inf pattern.
inline uint32_t rne_magnitude(uint32_t a, int q) {
  // a = (e - 1) * 2^23 + sig for normals and denormals alike (denormals
  // take e = 1), with the implicit bit inside sig; x = sig * 2^(e - 150).
  const uint32_t e = std::max(a >> 23, 1u);
  const int s = q + 150 - static_cast<int>(e);  // low sig bits the grid drops
  if (s <= 0) return a;  // the grid is at or below x's ulp
  const uint32_t base = (e - 1) << 23;
  const uint32_t sig = a - base;
  // Round sig / 2^s half-up minus one plus the kept LSB: ties to even. From
  // s = 25 on the quotient is 0 (sig < 2^24), so s is capped at 31.
  const auto sc = static_cast<uint32_t>(std::min(s, 31));
  const uint32_t k = (sig + (1u << (sc - 1)) - 1 + ((sig >> sc) & 1u)) >> sc;
  // k << sc may carry to 2^24: base + 2^24 is the next binade's pattern.
  return k != 0 ? base + (k << sc) : 0;
}

/// Quantise x onto grid g (see the contract at the top of this file).
inline float rne_quantize(float x, const RneGrid& g) {
  const uint32_t u = std::bit_cast<uint32_t>(x);
  const uint32_t sign = u & 0x80000000u;
  const uint32_t a = u ^ sign;
  const uint32_t mx = sign != 0 ? g.neg_max : g.pos_max;
  uint32_t r;
  if (a >= RneGrid::kInfBits) {
    if (a != RneGrid::kInfBits || !g.saturate) return x;  // NaN, or Inf kept
    r = mx;
  } else if (a >= g.fast_lo) {
    r = (a + g.fast_add + ((a >> g.fast_shift) & g.fast_parity)) & g.fast_keep;
  } else {
    // Below the normal range: the subnormal quantum, unless x is a float32
    // denormal that the format (e_min < -126) still holds as a normal.
    int q = g.q_sub;
    if (a < 0x800000u && g.e_min < -126) {
      const int e = 31 - std::countl_zero(a) - 149;
      if (e >= g.e_min) q = e - g.man_bits;
    }
    r = rne_magnitude(a, q);
  }
  if (r > mx) r = g.saturate ? mx : RneGrid::kInfBits;
  return std::bit_cast<float>(sign | r);
}

}  // namespace ge::fmt
