// Runs a test body once per GEMM micro-kernel path (portable, AVX2,
// AVX-512F) the CPU supports, so a bitwise contract is checked on every
// path the library can dispatch to, not only on the host's widest one.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "tensor/tensor_ops.hpp"

namespace ge::test {

/// Restores the GEMM path that was active at construction.
class GemmPathGuard {
 public:
  GemmPathGuard() : saved_(ops::testing::gemm_path()) {}
  ~GemmPathGuard() { ops::testing::force_gemm_path(saved_); }

 private:
  ops::testing::GemmPath saved_;
};

/// Calls body() once per supported path with gemm forced onto it (the
/// path's name in every failure message), and prints each path this CPU
/// lacks as skipped.
template <class Body>
void for_each_gemm_path(Body&& body) {
  GemmPathGuard guard;
  for (const ops::testing::GemmPath path : ops::testing::kGemmPaths) {
    const char* name = ops::testing::gemm_path_name(path);
    if (!ops::testing::gemm_path_supported(path)) {
      std::printf("[gemm] skipped path %s: this CPU lacks it\n", name);
      continue;
    }
    ops::testing::force_gemm_path(path);
    SCOPED_TRACE(std::string("gemm path ") + name);
    body();
  }
}

}  // namespace ge::test
