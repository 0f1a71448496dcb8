#include "math/fft.hpp"

#include <algorithm>
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

/// The line kernel every transform goes through: an in-place radix-2
/// transform of n contiguous complex values, read and written as interleaved
/// (re, im) doubles. Bit-reversal permutation, then the butterfly passes in
/// textbook order. The butterflies of one pass touch disjoint elements, so
/// they run twiddle by twiddle (one table load per twiddle) without changing
/// any result. Each multiply is `mul`, so the output is bit-identical to the
/// textbook loop on std::complex. `tw` is the size-n twiddle table.
void transform_line(double* x, std::size_t n, const Complex* tw,
                    bool inverse) {
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      std::swap(x[2 * i], x[2 * j]);
      std::swap(x[2 * i + 1], x[2 * j + 1]);
    }
  }
  // Negating the imaginary part is exact, so this is std::conj.
  const double conj_sign = inverse ? -1.0 : 1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t step = n / len;  // table stride for this pass
    for (std::size_t j = 0; j < half; ++j) {
      const Complex w(tw[j * step].real(), conj_sign * tw[j * step].imag());
      for (std::size_t i = j; i < n; i += len) {
        double* a = x + 2 * i;
        double* b = x + 2 * (i + half);
        const Complex v = mul(Complex(b[0], b[1]), w);
        const double ur = a[0];
        const double ui = a[1];
        a[0] = ur + v.real();
        a[1] = ui + v.imag();
        b[0] = ur - v.real();
        b[1] = ui - v.imag();
      }
    }
  }
  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < 2 * n; ++i) x[i] *= scale;
  }
}

/// std::complex<double> is layout-compatible with double[2].
double* as_doubles(Complex* data) { return reinterpret_cast<double*>(data); }

/// Scheduling grain for the pencil loops: enough lines per chunk that the
/// dispatch cost is negligible next to the O(n log n) line transforms.
std::size_t pencil_grain(std::size_t line_length) {
  return std::max<std::size_t>(1, 2048 / std::max<std::size_t>(line_length, 1));
}

/// Strided lines are gathered this many at a time. Neighbouring lines are
/// adjacent in memory, so each row read takes eight values (two cache
/// lines) instead of one, and a power-of-two stride no longer maps every
/// element of a line onto the same cache set.
constexpr std::size_t kGatherLines = 8;

/// Transforms every length-n line of one axis of a `total`-element array.
/// Line l starts at (l / stride) * n * stride + l % stride and steps by
/// `stride`. Contiguous lines (stride 1) are transformed in place; strided
/// ones are gathered, up to kGatherLines neighbours at a time, into a
/// per-chunk buffer, transformed there and scattered back. Each line is
/// independent, so the arithmetic is identical at any thread count.
void transform_axis(Complex* d, std::size_t total, std::size_t n,
                    std::size_t stride, bool inverse) {
  const Complex* tw = TwiddleCache::get(n).data();
  parallel::parallel_for(
      0, total / n, pencil_grain(n), [=](std::size_t begin, std::size_t end) {
        if (stride == 1) {
          for (std::size_t line = begin; line < end; ++line) {
            transform_line(as_doubles(d + line * n), n, tw, inverse);
          }
          return;
        }
        std::vector<Complex> buffer(kGatherLines * n);
        for (std::size_t line = begin; line < end;) {
          const std::size_t width = std::min(
              {kGatherLines, end - line, stride - line % stride});
          Complex* first = d + (line / stride) * n * stride + line % stride;
          for (std::size_t k = 0; k < n; ++k) {
            for (std::size_t b = 0; b < width; ++b) {
              buffer[b * n + k] = first[k * stride + b];
            }
          }
          for (std::size_t b = 0; b < width; ++b) {
            transform_line(as_doubles(buffer.data() + b * n), n, tw, inverse);
          }
          for (std::size_t k = 0; k < n; ++k) {
            for (std::size_t b = 0; b < width; ++b) {
              first[k * stride + b] = buffer[b * n + k];
            }
          }
          line += width;
        }
      });
}

}  // namespace

void fft(std::vector<Complex>& data, bool inverse) {
  GC_CHECK_MSG(is_pow2(data.size()), "FFT size must be a power of two");
  transform_line(as_doubles(data.data()), data.size(),
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
