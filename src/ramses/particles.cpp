#include "ramses/particles.hpp"

#include <immintrin.h>

#include <cmath>

#include "parallel/pool.hpp"

namespace gc::ramses {

namespace {

double wrap01(double v) {
  v -= std::floor(v);
  if (v >= 1.0) v = 0.0;  // guard against -1e-17 -> 1.0 rounding
  return v;
}

/// wrap01 on v[begin, end): the reference every instance matches.
void wrap_scalar(double* v, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) v[i] = wrap01(v[i]);
}

/// wrap01 on eight values at once: x - floor(x) with floor as
/// round-to-minus-infinity, then 0.0 blended in where that is >= 1.0.
/// These are wrap01's operations, so the bits agree for every input,
/// -0.0, NaN and +-inf included. The tail runs the scalar loop.
__attribute__((target("avx512f"))) void wrap_avx512(double* v,
                                                    std::size_t begin,
                                                    std::size_t end) {
  constexpr std::size_t kBlock = 8;
  const __m512d zero = _mm512_setzero_pd();
  const __m512d one = _mm512_set1_pd(1.0);
  std::size_t i = begin;
  for (; i + kBlock <= end; i += kBlock) {
    const __m512d x = _mm512_loadu_pd(v + i);
    const __m512d r = _mm512_sub_pd(
        x, _mm512_mask_roundscale_pd(zero, 0xFF, x,
                                     _MM_FROUND_TO_NEG_INF |
                                         _MM_FROUND_NO_EXC));
    _mm512_storeu_pd(
        v + i,
        _mm512_mask_blend_pd(_mm512_cmp_pd_mask(r, one, _CMP_GE_OQ), r,
                             zero));
  }
  wrap_scalar(v, i, end);
}

}  // namespace

void ParticleSet::wrap_positions() { wrap_positions(math::host_isa()); }

void ParticleSet::wrap_positions(math::Isa isa) {
  GC_CHECK_MSG(math::host_supports(isa),
               "wrap_positions: the host cannot run this ISA");
  void (*wrap)(double*, std::size_t, std::size_t) =
      isa == math::Isa::kAvx512 ? wrap_avx512 : wrap_scalar;
  parallel::parallel_for(0, size(), 8192,
                         [this, wrap](std::size_t begin, std::size_t end) {
                           wrap(x.data(), begin, end);
                           wrap(y.data(), begin, end);
                           wrap(z.data(), begin, end);
                         });
}

bool ParticleSet::valid() const {
  const std::size_t n = x.size();
  if (y.size() != n || z.size() != n || px.size() != n || py.size() != n ||
      pz.size() != n || mass.size() != n || id.size() != n ||
      level.size() != n) {
    return false;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!(x[i] >= 0.0 && x[i] < 1.0) || !(y[i] >= 0.0 && y[i] < 1.0) ||
        !(z[i] >= 0.0 && z[i] < 1.0)) {
      return false;
    }
    if (!(mass[i] > 0.0)) return false;
  }
  return true;
}

}  // namespace gc::ramses
