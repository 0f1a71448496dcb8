// Radix-2 complex FFT in three dimensions (any of them may be 1).
//
// The PM gravity solver and the GRAFIC initial-conditions generator both
// need 3D transforms on power-of-two grids. This is a classic iterative
// Cooley-Tukey implementation: bit-reversal permutation + butterfly
// passes, O(N log N), no external dependency.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "math/isa.hpp"

namespace gc::math {

using Complex = std::complex<double>;

/// Complex product as four products and two sums, in this order. This is
/// the arithmetic of std::complex operator* on finite values, without the
/// C99 Annex G NaN-recovery call (__muldc3) GCC emits behind it. Keep all
/// four products: folding a known-zero part away flips signed zeros.
inline Complex mul(const Complex& a, const Complex& b) {
  return Complex(a.real() * b.real() - a.imag() * b.imag(),
                 a.real() * b.imag() + a.imag() * b.real());
}

/// True iff n is a power of two (and > 0).
constexpr bool is_pow2(std::size_t n) { return n > 0 && (n & (n - 1)) == 0; }

/// In-place 3D FFT on an n0*n1*n2 row-major array (index = (i0*n1+i1)*n2+i2).
/// All dimensions must be powers of two; length-1 axes make it a 2D or 1D
/// transform. `inverse` applies the conjugate transform and divides by the
/// size, so a forward then an inverse transform give back the input up to
/// rounding. Runs the host_isa() instance.
void fft3(std::vector<Complex>& data, std::size_t n0, std::size_t n1,
          std::size_t n2, bool inverse);

/// The same transform with the `isa` instance, which the host must
/// support. Every instance gives the same bytes.
void fft3(Isa isa, std::vector<Complex>& data, std::size_t n0,
          std::size_t n1, std::size_t n2, bool inverse);

/// Convenience: cube transform (n^3 elements).
inline void fft3(std::vector<Complex>& data, std::size_t n, bool inverse) {
  fft3(data, n, n, n, inverse);
}

/// Frequency (in cycles per box) of index k on an n-point grid: the usual
/// wrap-around convention, k <= n/2 ? k : k - n.
constexpr long freq_index(std::size_t k, std::size_t n) {
  return k <= n / 2 ? static_cast<long>(k)
                    : static_cast<long>(k) - static_cast<long>(n);
}

}  // namespace gc::math
