// Two-lane double vectors for the per-frame AoA kernels.
//
// The covariance, grid-scan and EVD kernels keep many independent
// accumulators in flight and spread them across SIMD lanes. No single
// accumulator is ever split or reassociated, so every lane computes
// exactly the scalar operation sequence it replaces, bit for bit. These
// are GCC/Clang vector extensions (SSE2 on x86-64): element-wise IEEE
// arithmetic, never fused into FMA while the build enables no FMA (see
// the note beside add_compile_options in CMakeLists.txt).
#pragma once

#include <complex>
#include <cstddef>
#include <cstring>

namespace sa::lanes {

typedef double v2d __attribute__((vector_size(16)));
typedef long long v2i __attribute__((vector_size(16)));

inline v2d splat(double x) { return v2d{x, x}; }

/// Unaligned two-double load/store (memcpy keeps it free of aliasing
/// and alignment assumptions; it compiles to one movupd).
inline v2d load(const double* p) {
  v2d v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline void store(double* p, v2d v) { std::memcpy(p, &v, sizeof v); }

/// True when |re| <= bound and |im| <= bound for every x[i]; a NaN
/// compares false. One comparison per part, both parts of a sample in
/// one vector compare and no branch per sample: 8 us per 8 x 1472 IQ
/// chunk, where a scalar loop that returns at the first failure
/// measured 14-16 us.
inline bool parts_within(const std::complex<double>* x, std::size_t n,
                         double bound) {
  const v2i magnitude = {0x7fffffffffffffffLL, 0x7fffffffffffffffLL};
  const v2d limit = splat(bound);
  v2i ok = {-1, -1};
  for (std::size_t i = 0; i < n; ++i) {
    v2d v;
    std::memcpy(&v, x + i, sizeof v);
    ok &= reinterpret_cast<v2d>(reinterpret_cast<v2i>(v) & magnitude) <= limit;
  }
  return ok[0] != 0 && ok[1] != 0;
}

}  // namespace sa::lanes
