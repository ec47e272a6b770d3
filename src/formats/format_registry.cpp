#include "formats/format_registry.hpp"

#include <charconv>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "formats/afp.hpp"
#include "formats/bfp.hpp"
#include "formats/fp.hpp"
#include "formats/fxp.hpp"
#include "formats/intq.hpp"
#include "formats/posit.hpp"
#include "obs/telemetry.hpp"

namespace ge::fmt {

namespace {

/// Parse a decimal integer at the front of `s`, advancing it.
bool eat_int(std::string_view& s, int64_t& out) {
  const auto* begin = s.data();
  const auto* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  if (ec != std::errc{} || ptr == begin) return false;
  s.remove_prefix(static_cast<size_t>(ptr - begin));
  return true;
}

bool eat(std::string_view& s, std::string_view token) {
  if (s.substr(0, token.size()) != token) return false;
  s.remove_prefix(token.size());
  return true;
}

std::string resolve_alias(const std::string& spec) {
  if (spec == "fp32") return "fp_e8m23";
  if (spec == "fp16" || spec == "half") return "fp_e5m10";
  if (spec == "bfloat16" || spec == "bfloat") return "fp_e8m7";
  if (spec == "tf32" || spec == "tensorfloat") return "fp_e8m10";
  if (spec == "dlfloat") return "fp_e6m9";
  if (spec == "fp8_e4m3") return "fp_e4m3";
  if (spec == "fp8_e5m2") return "fp_e5m2";
  return spec;
}

std::unique_ptr<NumberFormat> parse(const std::string& full_spec) {
  const std::string resolved = resolve_alias(full_spec);
  std::string_view s = resolved;

  if (eat(s, "fp_e")) {
    int64_t e = 0, m = 0;
    if (!eat_int(s, e) || !eat(s, "m") || !eat_int(s, m)) return nullptr;
    FloatFormat::Options opt;
    while (!s.empty()) {
      if (eat(s, "_nodn")) {
        opt.denormals = false;
      } else if (eat(s, "_sat")) {
        opt.saturate_overflow = true;
      } else {
        return nullptr;
      }
    }
    return std::make_unique<FloatFormat>(static_cast<int>(e),
                                         static_cast<int>(m), opt);
  }

  if (eat(s, "fxp_1_")) {
    int64_t i = 0, f = 0;
    if (!eat_int(s, i) || !eat(s, "_") || !eat_int(s, f) || !s.empty()) {
      return nullptr;
    }
    return std::make_unique<FxpFormat>(static_cast<int>(i),
                                       static_cast<int>(f));
  }

  if (eat(s, "int")) {
    int64_t n = 0;
    if (!eat_int(s, n) || !s.empty()) return nullptr;
    return std::make_unique<IntFormat>(static_cast<int>(n));
  }

  if (eat(s, "bfp_e")) {
    int64_t e = 0, m = 0, b = 0;
    if (!eat_int(s, e) || !eat(s, "m") || !eat_int(s, m) || !eat(s, "_b")) {
      return nullptr;
    }
    if (eat(s, "tensor")) {
      b = 0;
    } else if (!eat_int(s, b)) {
      return nullptr;
    }
    if (!s.empty()) return nullptr;
    return std::make_unique<BfpFormat>(static_cast<int>(e),
                                       static_cast<int>(m), b);
  }

  if (eat(s, "posit_")) {
    int64_t n = 0, es = 0;
    if (!eat_int(s, n) || !eat(s, "_") || !eat_int(s, es) || !s.empty()) {
      return nullptr;
    }
    return std::make_unique<PositFormat>(static_cast<int>(n),
                                         static_cast<int>(es));
  }

  if (eat(s, "afp_e")) {
    int64_t e = 0, m = 0;
    if (!eat_int(s, e) || !eat(s, "m") || !eat_int(s, m)) return nullptr;
    AfpFormat::Options opt;
    if (eat(s, "_dn")) opt.denormals = true;
    if (!s.empty()) return nullptr;
    return std::make_unique<AfpFormat>(static_cast<int>(e),
                                       static_cast<int>(m), opt);
  }

  return nullptr;
}

}  // namespace

std::unique_ptr<NumberFormat> make_format(const std::string& spec) {
  // Per-spec prototype cache: campaigns construct one format per layer per
  // replica from the same handful of spec strings, so parse once and clone.
  // Prototypes are never used for conversion, so clones carry no tensor
  // state. Thread-safe: replica setup may run from pool workers.
  static std::mutex mu;
  static std::unordered_map<std::string, std::unique_ptr<NumberFormat>> cache;
  {
    std::lock_guard<std::mutex> lk(mu);
    const auto it = cache.find(spec);
    if (it != cache.end()) {
      obs::add(obs::Counter::kFormatCacheHits);
      return it->second->clone();
    }
  }
  obs::add(obs::Counter::kFormatCacheMisses);
  auto f = parse(spec);
  if (!f) {
    throw std::invalid_argument("make_format: unknown format spec '" + spec +
                                "'");
  }
  std::lock_guard<std::mutex> lk(mu);
  auto& slot = cache[spec];
  if (!slot) slot = f->clone();
  return f;
}

bool is_valid_spec(const std::string& spec) {
  try {
    return parse(spec) != nullptr;
  } catch (const std::invalid_argument&) {
    return false;  // parsed but parameters out of range
  }
}

std::vector<std::string> known_aliases() {
  return {"fp32",    "fp16",     "half", "bfloat16", "bfloat",
          "tf32",    "dlfloat",  "fp8_e4m3", "fp8_e5m2"};
}

}  // namespace ge::fmt
