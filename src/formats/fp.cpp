#include "formats/fp.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/telemetry.hpp"

namespace ge::fmt {

namespace {
std::string fp_name(int e, int m, const FloatFormat::Options& o) {
  std::string s = "fp_e" + std::to_string(e) + "m" + std::to_string(m);
  if (!o.denormals) s += "_nodn";
  if (o.saturate_overflow) s += "_sat";
  return s;
}
}  // namespace

FloatFormat::FloatFormat(int exp_bits, int man_bits, Options opt)
    : NumberFormat(fp_name(exp_bits, man_bits, opt), 1 + exp_bits + man_bits),
      exp_bits_(exp_bits),
      man_bits_(man_bits),
      bias_((1 << (exp_bits - 1)) - 1),
      e_min_(1 - bias_),
      e_max_(bias_),
      opt_(opt) {
  if (exp_bits < 2 || exp_bits > 11) {
    throw std::invalid_argument("FloatFormat: exp_bits must be in [2, 11]");
  }
  if (man_bits < 1 || man_bits > 52) {
    throw std::invalid_argument("FloatFormat: man_bits must be in [1, 52]");
  }
  grid_ = RneGrid::floating(man_bits_, e_min_, opt_.denormals, abs_max(),
                            opt_.saturate_overflow);
}

float FloatFormat::quantize_value(float x) const {
  return rne_quantize(x, grid_);
}

void FloatFormat::quantize_tensor_inplace(Tensor& t) {
  if (grid_.identity()) {
    // fp_e8m23 and wider: every float32 is representable. Nothing to write
    // (so no copy-on-write detach), but the elements still count.
    obs::record_quantization(t.cdata(), t.cdata(), t.numel(), abs_max());
    return;
  }
  // Value-only format (no tensor-level metadata): elements quantize
  // independently and the loop chunks across threads.
  elementwise_inplace(t, [g = grid_](float x) { return rne_quantize(x, g); });
}

BitString FloatFormat::real_to_format(float value) const {
  const float q = quantize_value(value);
  const uint64_t sign = std::signbit(q) ? 1 : 0;
  const uint64_t exp_all_ones = (uint64_t{1} << exp_bits_) - 1;
  uint64_t exp_field = 0;
  uint64_t man_field = 0;
  const float aq = std::fabs(q);
  if (std::isnan(q)) {
    exp_field = exp_all_ones;
    man_field = uint64_t{1} << (man_bits_ - 1);  // quiet-NaN style payload
  } else if (std::isinf(q)) {
    exp_field = exp_all_ones;
  } else if (aq == 0.0f) {
    // all-zero fields
  } else {
    int e_unb = floor_log2(aq);
    if (e_unb < e_min_) {
      // denormal: value = man * 2^(e_min - m)
      exp_field = 0;
      man_field = static_cast<uint64_t>(
          std::llround(aq / pow2f(e_min_ - man_bits_)));
    } else {
      exp_field = static_cast<uint64_t>(e_unb + bias_);
      const float frac = aq / pow2f(e_unb) - 1.0f;  // in [0, 1)
      man_field =
          static_cast<uint64_t>(std::llround(frac * pow2f(man_bits_)));
    }
  }
  const uint64_t bits =
      (sign << (exp_bits_ + man_bits_)) | (exp_field << man_bits_) | man_field;
  return BitString(bits, bit_width_);
}

float FloatFormat::format_to_real(const BitString& bits) const {
  if (bits.width() != bit_width_) {
    throw std::invalid_argument("FloatFormat: bitstring width mismatch");
  }
  const uint64_t raw = bits.value();
  const uint64_t man_mask = (uint64_t{1} << man_bits_) - 1;
  const uint64_t exp_mask = (uint64_t{1} << exp_bits_) - 1;
  const uint64_t man_field = raw & man_mask;
  const uint64_t exp_field = (raw >> man_bits_) & exp_mask;
  const bool sign = (raw >> (exp_bits_ + man_bits_)) & 1;
  const float s = sign ? -1.0f : 1.0f;

  if (exp_field == exp_mask) {
    if (man_field == 0) return s * std::numeric_limits<float>::infinity();
    return std::numeric_limits<float>::quiet_NaN();
  }
  if (exp_field == 0) {
    if (!opt_.denormals) return s * 0.0f;  // denormals disabled: reads as 0
    return s * static_cast<float>(man_field) * pow2f(e_min_ - man_bits_);
  }
  const int e_unb = static_cast<int>(exp_field) - bias_;
  const float frac =
      1.0f + static_cast<float>(man_field) / pow2f(man_bits_);
  return s * frac * pow2f(e_unb);
}

double FloatFormat::abs_max() const {
  return (2.0 - std::ldexp(1.0, -man_bits_)) * std::ldexp(1.0, e_max_);
}

double FloatFormat::abs_min() const {
  return opt_.denormals ? std::ldexp(1.0, e_min_ - man_bits_)
                        : std::ldexp(1.0, e_min_);
}

std::string FloatFormat::spec() const { return name_; }

std::unique_ptr<NumberFormat> FloatFormat::clone() const {
  return std::make_unique<FloatFormat>(*this);
}

}  // namespace ge::fmt
