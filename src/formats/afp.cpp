#include "formats/afp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/tensor_ops.hpp"

namespace ge::fmt {

namespace {
std::string afp_name(int e, int m, const AfpFormat::Options& o) {
  std::string s = "afp_e" + std::to_string(e) + "m" + std::to_string(m);
  if (o.denormals) s += "_dn";
  return s;
}
}  // namespace

AfpFormat::AfpFormat(int exp_bits, int man_bits, Options opt)
    : NumberFormat(afp_name(exp_bits, man_bits, opt), 1 + exp_bits + man_bits),
      exp_bits_(exp_bits),
      man_bits_(man_bits),
      opt_(opt),
      standard_bias_((1 << (exp_bits - 1)) - 1),
      bias_offset_(0) {
  if (exp_bits < 2 || exp_bits > 8) {
    throw std::invalid_argument("AfpFormat: exp_bits must be in [2, 8]");
  }
  if (man_bits < 1 || man_bits > 23) {
    throw std::invalid_argument("AfpFormat: man_bits must be in [1, 23]");
  }
}

RneGrid AfpFormat::grid() const {
  // AFP has no Inf: overflow and Inf inputs saturate at the moved abs_max.
  return RneGrid::floating(man_bits_, e_min(), opt_.denormals, abs_max(),
                           /*saturate=*/true);
}

float AfpFormat::quantize_value(float x) const {
  return rne_quantize(x, grid());
}

void AfpFormat::quantize_tensor_inplace(Tensor& t) {
  // Adaptive step: move the representable range onto the data, as far as
  // the offset register allows.
  const float data_max = ops::max_abs(t);
  if (data_max > 0.0f && std::isfinite(data_max)) {
    const int e_data = floor_log2(data_max);
    const int desired_bias = ((1 << exp_bits_) - 2) - e_data;
    bias_offset_ = std::clamp(desired_bias - standard_bias_,
                              kOffsetMin, kOffsetMax);
  }
  // Persistent-register fault replay needs the pre-quantisation values, so
  // AFP always captures them (capacity reused across captures), inside the
  // element loop; the same buffer doubles as the `before` image for
  // record_quantization.
  const int64_t n = t.numel();
  last_shape_ = t.shape();
  last_vals_.resize(static_cast<size_t>(n));
  float* before = last_vals_.data();

  // Metadata (the bias offset) is fixed above; the element loop is then
  // pure per-value work on one grid and chunks across threads.
  float* p = t.data();
  const RneGrid g = grid();
  parallel::parallel_for(0, n, 4096, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      before[i] = p[i];
      p[i] = rne_quantize(p[i], g);
    }
  });
  obs::record_quantization(last_vals_.data(), p, n, abs_max());
}

BitString AfpFormat::real_to_format(float value) const {
  const float q = quantize_value(value);
  const uint64_t sign = std::signbit(q) ? 1 : 0;
  uint64_t exp_field = 0;
  uint64_t man_field = 0;
  const float aq = std::fabs(q);
  if (aq != 0.0f && !std::isnan(q)) {
    const int e_unb = floor_log2(aq);
    if (e_unb < e_min()) {
      exp_field = 0;  // denormal
      man_field = static_cast<uint64_t>(
          std::llround(aq / pow2f(e_min() - man_bits_)));
    } else {
      exp_field = static_cast<uint64_t>(e_unb + exp_bias());
      const float frac = aq / pow2f(e_unb) - 1.0f;
      man_field =
          static_cast<uint64_t>(std::llround(frac * pow2f(man_bits_)));
    }
  }
  const uint64_t bits =
      (sign << (exp_bits_ + man_bits_)) | (exp_field << man_bits_) | man_field;
  return BitString(bits, bit_width_);
}

float AfpFormat::decode_fields(bool sign, int exp_field, int man_field) const {
  const float s = sign ? -1.0f : 1.0f;
  if (exp_field == 0) {
    if (!opt_.denormals) return s * 0.0f;
    return s * static_cast<float>(man_field) * pow2f(e_min() - man_bits_);
  }
  // All non-zero exponent codes decode as normals (no Inf/NaN in AFP);
  // faulty values stay finite, as in a saturating accelerator datapath.
  const int e_unb = exp_field - exp_bias();
  const float frac = 1.0f + static_cast<float>(man_field) / pow2f(man_bits_);
  return s * frac * pow2f(e_unb);
}

float AfpFormat::format_to_real(const BitString& bits) const {
  if (bits.width() != bit_width_) {
    throw std::invalid_argument("AfpFormat: bitstring width mismatch");
  }
  const uint64_t raw = bits.value();
  const int man_field =
      static_cast<int>(raw & ((uint64_t{1} << man_bits_) - 1));
  const int exp_field = static_cast<int>((raw >> man_bits_) &
                                         ((uint64_t{1} << exp_bits_) - 1));
  const bool sign = (raw >> (exp_bits_ + man_bits_)) & 1;
  return decode_fields(sign, exp_field, man_field);
}

std::vector<MetadataField> AfpFormat::metadata_fields() const {
  return {MetadataField{"exp_bias", kOffsetBits, 1}};
}

BitString AfpFormat::read_metadata(const std::string& field,
                                   int64_t index) const {
  if (field != "exp_bias" || index != 0) {
    throw std::logic_error("AfpFormat: unknown metadata register '" + field +
                           "[" + std::to_string(index) + "]'");
  }
  const uint64_t mask = (uint64_t{1} << kOffsetBits) - 1;
  return BitString(static_cast<uint64_t>(bias_offset_) & mask, kOffsetBits);
}

void AfpFormat::write_metadata(const std::string& field, int64_t index,
                               const BitString& bits) {
  if (field != "exp_bias" || index != 0 || bits.width() != kOffsetBits) {
    throw std::logic_error("AfpFormat: bad metadata write to '" + field + "'");
  }
  // two's-complement decode of the offset register
  const auto raw = static_cast<int>(bits.value());
  const int sign_bit = 1 << (kOffsetBits - 1);
  bias_offset_ = (raw & sign_bit) ? raw - (1 << kOffsetBits) : raw;
}

Tensor AfpFormat::decode_last_tensor() const {
  if (last_vals_.empty()) {
    throw std::logic_error("AfpFormat: no tensor converted yet");
  }
  // Persistent-register fault: the corrupted bias governs both ends of the
  // value lifetime, so the tensor re-materialises as a *re-quantisation*
  // of the original values under the moved representable range (clipping
  // at the new max, flushing below the new min) — see header.
  Tensor out(last_shape_);
  const float* pin = last_vals_.data();
  float* po = out.data();
  const RneGrid g = grid();
  parallel::parallel_for(0, out.numel(), 4096, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) po[i] = rne_quantize(pin[i], g);
  });
  return out;
}

double AfpFormat::abs_max() const {
  return (2.0 - std::ldexp(1.0, -man_bits_)) * std::ldexp(1.0, e_max());
}

double AfpFormat::abs_min() const {
  return opt_.denormals ? std::ldexp(1.0, e_min() - man_bits_)
                        : std::ldexp(1.0, e_min());
}

std::string AfpFormat::spec() const { return name_; }

std::unique_ptr<NumberFormat> AfpFormat::clone() const {
  return std::make_unique<AfpFormat>(*this);
}

}  // namespace ge::fmt
