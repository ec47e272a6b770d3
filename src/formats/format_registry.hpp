// FormatRegistry: turns a textual format spec into a NumberFormat object.
// This is the command-line surface the paper's DSE wrapper scripts drive
// (§IV-B): every knob (bitwidth, radix, block size, denormals) is
// expressible in the spec string.
//
// Grammar:
//   fp_e<E>m<M>[_nodn][_sat]    parameterised float        e.g. fp_e4m3
//   fxp_1_<I>_<F>               fixed point (sign, int, frac)  fxp_1_3_12
//   int<N>                      symmetric integer quant.       int8
//   bfp_e<E>m<M>_b<B|tensor>    block floating point           bfp_e8m7_b16
//   afp_e<E>m<M>[_dn]           AdaptivFloat                   afp_e4m3
//   posit_<N>_<ES>              posit (future-format demo)     posit_8_1
// Aliases: fp32, fp16, bfloat16, tf32, dlfloat, fp8_e4m3, fp8_e5m2.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "formats/number_format.hpp"

namespace ge::fmt {

/// Create a format from its spec string. Throws std::invalid_argument on
/// an unknown or malformed spec.
std::unique_ptr<NumberFormat> make_format(const std::string& spec);

/// True if `spec` parses (cheap validation for config front ends).
bool is_valid_spec(const std::string& spec);

/// The named aliases this build knows about (for --help output).
std::vector<std::string> known_aliases();

}  // namespace ge::fmt
