#include "math/fft.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "common/log.hpp"
#include "parallel/pool.hpp"

namespace gc::math {

namespace {

/// Twiddle table for size n: tw[j] = exp(-2*pi*i*j/n), j < n/2. Computed
/// once per FFT size (direct cos/sin per entry, no incremental recurrence
/// accumulating rounding error) and shared by every transform of that size.
/// Each axis of a 3D transform fetches it once, before fanning out.
class TwiddleCache {
 public:
  static const std::vector<Complex>& get(std::size_t n) {
    static TwiddleCache cache;
    {
      std::shared_lock<std::shared_mutex> lock(cache.mutex_);
      if (auto it = cache.tables_.find(n); it != cache.tables_.end()) {
        return *it->second;
      }
    }
    std::unique_lock<std::shared_mutex> lock(cache.mutex_);
    auto& slot = cache.tables_[n];
    if (!slot) {
      auto table = std::make_unique<std::vector<Complex>>(
          std::max<std::size_t>(n / 2, 1));
      for (std::size_t j = 0; j < table->size(); ++j) {
        const double angle =
            -2.0 * M_PI * static_cast<double>(j) / static_cast<double>(n);
        (*table)[j] = Complex(std::cos(angle), std::sin(angle));
      }
      slot = std::move(table);
    }
    return *slot;
  }

 private:
  std::shared_mutex mutex_;
  std::map<std::size_t, std::unique_ptr<std::vector<Complex>>> tables_;
};

/// Two doubles in one SSE2 register. Arithmetic on it is the IEEE add,
/// subtract or multiply of each lane on its own, so a lane computes exactly
/// what the same scalar expression computes. x86-64 has SSE2 everywhere and
/// nothing here fuses a multiply into an add, so no compile flag is needed.
using V2 = double __attribute__((vector_size(16)));

/// Element k of 2*G lines transformed in lockstep: the reals of the lines
/// in `re`, the imaginaries in `im`, lane b at [b / 2][b % 2].
template <std::size_t G>
struct Lanes {
  V2 re[G];
  V2 im[G];
};

/// The line kernel every transform goes through: an in-place radix-2
/// transform of the 2*G length-n lines held element-major in `x` (row k is
/// element k of every line). Bit-reversal permutation of the rows, then the
/// butterfly passes in textbook order. The butterflies of one pass touch
/// disjoint elements, so they run twiddle by twiddle (one table load per
/// twiddle) without changing any result. Every lane does the textbook
/// butterfly's operations in its order, the multiply being `mul`'s four
/// products and two sums, so each line's output is bit-identical to the
/// textbook loop on std::complex. `tw` is the size-n twiddle table.
template <std::size_t G>
void transform_rows(Lanes<G>* x, std::size_t n, const Complex* tw,
                    bool inverse) {
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  // Negating the imaginary part is exact, so this is std::conj.
  const double conj_sign = inverse ? -1.0 : 1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t step = n / len;  // table stride for this pass
    for (std::size_t j = 0; j < half; ++j) {
      const double wr = tw[j * step].real();
      const double wi = conj_sign * tw[j * step].imag();
      const V2 vwr = {wr, wr};
      const V2 vwi = {wi, wi};
      for (std::size_t i = j; i < n; i += len) {
        Lanes<G>& a = x[i];
        Lanes<G>& b = x[i + half];
        for (std::size_t g = 0; g < G; ++g) {
          const V2 vr = b.re[g] * vwr - b.im[g] * vwi;
          const V2 vi = b.re[g] * vwi + b.im[g] * vwr;
          const V2 ur = a.re[g];
          const V2 ui = a.im[g];
          a.re[g] = ur + vr;
          a.im[g] = ui + vi;
          b.re[g] = ur - vr;
          b.im[g] = ui - vi;
        }
      }
    }
  }
  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n);
    const V2 vscale = {scale, scale};
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t g = 0; g < G; ++g) {
        x[i].re[g] *= vscale;
        x[i].im[g] *= vscale;
      }
    }
  }
}

/// Transforms `width` <= 2*G lines of length n: line b starts at line[b]
/// and steps by `stride`. The lines are gathered element-major into `rows`
/// (n entries), the lanes past `width` zeroed, transformed in lockstep,
/// and only the live lanes scattered back.
template <std::size_t G>
void transform_lines(Lanes<G>* rows, Complex* const* line, std::size_t width,
                     std::size_t n, std::size_t stride, const Complex* tw,
                     bool inverse) {
  for (std::size_t k = 0; k < n; ++k) {
    Lanes<G>& row = rows[k];
    for (std::size_t b = 0; b < 2 * G; ++b) {
      const Complex z = b < width ? line[b][k * stride] : Complex();
      row.re[b / 2][b % 2] = z.real();
      row.im[b / 2][b % 2] = z.imag();
    }
  }
  transform_rows(rows, n, tw, inverse);
  for (std::size_t k = 0; k < n; ++k) {
    const Lanes<G>& row = rows[k];
    for (std::size_t b = 0; b < width; ++b) {
      line[b][k * stride] = Complex(row.re[b / 2][b % 2], row.im[b / 2][b % 2]);
    }
  }
}

/// Scheduling grain for the pencil loops: enough lines per chunk that the
/// dispatch cost is negligible next to the O(n log n) line transforms.
std::size_t pencil_grain(std::size_t line_length) {
  return std::max<std::size_t>(1, 2048 / std::max<std::size_t>(line_length, 1));
}

/// Lines transformed in lockstep by the 3D transform: four SSE2 registers
/// of reals and four of imaginaries per element. Lines next to each other
/// in a strided axis are adjacent in memory, so each row read takes eight
/// values (two cache lines) instead of one, and a power-of-two stride no
/// longer maps every element of a line onto the same cache set.
constexpr std::size_t kGatherLines = 8;

/// Transforms every length-n line of one axis of a `total`-element array.
/// Line l starts at (l / stride) * n * stride + l % stride and steps by
/// `stride` (a power of two). Each chunk takes its lines kGatherLines at a
/// time, the last batch of a chunk possibly partial. Each line is
/// independent, so the arithmetic is identical at any thread count.
void transform_axis(Complex* d, std::size_t total, std::size_t n,
                    std::size_t stride, bool inverse) {
  const Complex* tw = TwiddleCache::get(n).data();
  const int shift = std::countr_zero(stride);
  parallel::parallel_for(
      0, total / n, pencil_grain(n), [=](std::size_t begin, std::size_t end) {
        std::vector<Lanes<kGatherLines / 2>> rows(n);
        Complex* line[kGatherLines];
        for (std::size_t first = begin; first < end; first += kGatherLines) {
          const std::size_t width = std::min(kGatherLines, end - first);
          for (std::size_t b = 0; b < width; ++b) {
            const std::size_t l = first + b;
            line[b] = d + ((l >> shift) * n << shift) + (l & (stride - 1));
          }
          transform_lines(rows.data(), line, width, n, stride, tw, inverse);
        }
      });
}

}  // namespace

void fft(std::vector<Complex>& data, bool inverse) {
  GC_CHECK_MSG(is_pow2(data.size()), "FFT size must be a power of two");
  // The lockstep kernel at its narrowest: one register per part, one of
  // its two lanes live.
  std::vector<Lanes<1>> rows(data.size());
  Complex* line[] = {data.data()};
  transform_lines(rows.data(), line, 1, data.size(), 1,
                  TwiddleCache::get(data.size()).data(), inverse);
}

void fft3(std::vector<Complex>& data, std::size_t n0, std::size_t n1,
          std::size_t n2, bool inverse) {
  GC_CHECK(data.size() == n0 * n1 * n2);
  GC_CHECK_MSG(is_pow2(n0) && is_pow2(n1) && is_pow2(n2),
               "FFT dims must be powers of two");
  // Axis 2 (contiguous rows), then axis 1 (stride n2), then axis 0
  // (stride n1*n2): the order fixes the rounding of every output.
  Complex* d = data.data();
  transform_axis(d, data.size(), n2, 1, inverse);
  transform_axis(d, data.size(), n1, n2, inverse);
  transform_axis(d, data.size(), n0, n1 * n2, inverse);
}

}  // namespace gc::math
