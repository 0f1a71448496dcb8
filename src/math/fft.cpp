#include "math/fft.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
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

/// Two or eight doubles in one register: the widths of SSE2 and AVX-512F.
/// Arithmetic on them is the IEEE add, subtract or multiply of each lane on
/// its own, so a lane computes exactly what the same scalar expression
/// computes. The library is compiled with -ffp-contract=off, so
/// no product is fused into a sum where the instruction set has FMA.
using V2 = double __attribute__((vector_size(16)));
using V8 = double __attribute__((vector_size(64)));

/// Element k of G*L lines transformed in lockstep, L = the lanes of V: the
/// reals of the lines in `re`, the imaginaries in `im`, lane b at
/// [b / L][b % L].
template <typename V, std::size_t G>
struct Lanes {
  static constexpr std::size_t kLanes = sizeof(V) / sizeof(double);
  static constexpr std::size_t kWidth = G * kLanes;
  V re[G];
  V im[G];
};

/// Uninitialized storage for n rows, 64-byte aligned. Outside a target
/// function GCC caps the alignment of a 64-byte vector type at 16 bytes,
/// but the AVX-512 instance loads and stores rows with aligned moves: a
/// std::vector of rows (aligned to alignof, 16) crashes. The buffer
/// over-allocates from plain operator new and aligns by hand: aligned
/// operator new goes through glibc's memalign, which raised the peak RSS
/// of a campaign by about 0.7 MiB.
template <typename Row>
class RowBuffer {
 public:
  explicit RowBuffer(std::size_t n)
      : storage_(new std::byte[n * sizeof(Row) + kAlign - 1]) {}

  [[nodiscard]] Row* get() const {
    const auto address = reinterpret_cast<std::uintptr_t>(storage_.get());
    return reinterpret_cast<Row*>((address + kAlign - 1) & ~(kAlign - 1));
  }

 private:
  static constexpr std::uintptr_t kAlign = 64;
  std::unique_ptr<std::byte[]> storage_;
};

/// The line kernel every transform goes through: an in-place radix-2
/// transform of the G*L length-n lines held element-major in `x` (row k is
/// element k of every line). Bit-reversal permutation of the rows, then the
/// butterfly passes in textbook order. The butterflies of one pass touch
/// disjoint elements, so they run twiddle by twiddle (one table load per
/// twiddle) without changing any result. Every lane does the textbook
/// butterfly's operations in its order, the multiply being `mul`'s four
/// products and two sums, so each line's output is bit-identical to the
/// textbook loop on std::complex. `tw` is the size-n twiddle table.
///
/// Always inlined: the instances below are built inside target functions,
/// and a function they call out of line would be compiled for baseline
/// x86-64 instead.
template <typename V, std::size_t G>
[[gnu::always_inline]] inline void transform_rows(Lanes<V, G>* x,
                                                  std::size_t n,
                                                  const Complex* tw,
                                                  bool inverse) {
  constexpr std::size_t L = Lanes<V, G>::kLanes;
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      for (std::size_t g = 0; g < G; ++g) {
        const V re = x[i].re[g];
        const V im = x[i].im[g];
        x[i].re[g] = x[j].re[g];
        x[i].im[g] = x[j].im[g];
        x[j].re[g] = re;
        x[j].im[g] = im;
      }
    }
  }
  // Negating the imaginary part is exact, so this is std::conj.
  const double conj_sign = inverse ? -1.0 : 1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t step = n / len;  // table stride for this pass
    for (std::size_t j = 0; j < half; ++j) {
      const double wr = tw[j * step].real();
      const double wi = conj_sign * tw[j * step].imag();
      V vwr = {};
      V vwi = {};
      for (std::size_t l = 0; l < L; ++l) {
        vwr[l] = wr;
        vwi[l] = wi;
      }
      for (std::size_t i = j; i < n; i += len) {
        Lanes<V, G>& a = x[i];
        Lanes<V, G>& b = x[i + half];
        for (std::size_t g = 0; g < G; ++g) {
          const V vr = b.re[g] * vwr - b.im[g] * vwi;
          const V vi = b.re[g] * vwi + b.im[g] * vwr;
          const V ur = a.re[g];
          const V ui = a.im[g];
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
    V vscale = {};
    for (std::size_t l = 0; l < L; ++l) vscale[l] = scale;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t g = 0; g < G; ++g) {
        x[i].re[g] *= vscale;
        x[i].im[g] *= vscale;
      }
    }
  }
}

/// Transforms `width` <= G*L lines of length n: line b starts at line[b]
/// and steps by `stride`. The lines are gathered element-major into `rows`
/// (n entries), the lanes past `width` zeroed, transformed in lockstep,
/// and only the live lanes scattered back.
template <typename V, std::size_t G>
[[gnu::always_inline]] inline void transform_lines(
    Lanes<V, G>* rows, Complex* const* line, std::size_t width,
    std::size_t n, std::size_t stride, const Complex* tw, bool inverse) {
  constexpr std::size_t L = Lanes<V, G>::kLanes;
  for (std::size_t k = 0; k < n; ++k) {
    Lanes<V, G>& row = rows[k];
    for (std::size_t b = 0; b < G * L; ++b) {
      const Complex z = b < width ? line[b][k * stride] : Complex();
      row.re[b / L][b % L] = z.real();
      row.im[b / L][b % L] = z.imag();
    }
  }
  transform_rows(rows, n, tw, inverse);
  for (std::size_t k = 0; k < n; ++k) {
    const Lanes<V, G>& row = rows[k];
    for (std::size_t b = 0; b < width; ++b) {
      line[b][k * stride] = Complex(row.re[b / L][b % L], row.im[b / L][b % L]);
    }
  }
}

/// Scheduling grain for the pencil loops: enough lines per chunk that the
/// dispatch cost is negligible next to the O(n log n) line transforms.
std::size_t pencil_grain(std::size_t line_length) {
  return std::max<std::size_t>(1, 2048 / std::max<std::size_t>(line_length, 1));
}

/// One axis of a 3D transform: line l of the `total / n` lines starts at
/// (l >> shift) * n * stride + (l & (stride - 1)) and steps by `stride` (a
/// power of two, 1 << shift).
struct Axis {
  Complex* data;
  std::size_t n;
  std::size_t stride;
  int shift;
  const Complex* tw;
  bool inverse;
};

/// Transforms lines [begin, end) of `axis`, G*L at a time, the last batch
/// possibly partial. Lines next to each other in a strided axis are
/// adjacent in memory, so each row read takes several values at once, and
/// a power-of-two stride no longer maps every element of a line onto the
/// same cache set.
template <typename V, std::size_t G>
[[gnu::always_inline]] inline void transform_chunk(const Axis& axis,
                                                   std::size_t begin,
                                                   std::size_t end) {
  constexpr std::size_t kWidth = Lanes<V, G>::kWidth;
  const RowBuffer<Lanes<V, G>> rows(axis.n);
  Complex* line[kWidth];
  for (std::size_t first = begin; first < end; first += kWidth) {
    const std::size_t width = std::min(kWidth, end - first);
    for (std::size_t b = 0; b < width; ++b) {
      const std::size_t l = first + b;
      line[b] = axis.data + ((l >> axis.shift) * axis.n << axis.shift) +
                (l & (axis.stride - 1));
    }
    transform_lines(rows.get(), line, width, axis.n, axis.stride, axis.tw,
                    axis.inverse);
  }
}

// One instance per instruction set. A lambda inside a target function
// would not inherit its target, so the pool calls these directly.

/// SSE2, the reference: eight lines in four registers per part.
void transform_chunk_sse2(const Axis& axis, std::size_t begin,
                          std::size_t end) {
  transform_chunk<V2, 4>(axis, begin, end);
}

/// AVX-512F: sixteen lines in two registers per part.
__attribute__((target("avx512f"))) void transform_chunk_avx512(
    const Axis& axis, std::size_t begin, std::size_t end) {
  transform_chunk<V8, 2>(axis, begin, end);
}

/// Transforms every length-n line of one axis of a `total`-element array
/// with the `isa` instance. Each line is independent, so the arithmetic is
/// identical at any thread count.
void transform_axis(Isa isa, Complex* d, std::size_t total, std::size_t n,
                    std::size_t stride, bool inverse) {
  const Axis axis{d, n, stride, std::countr_zero(stride),
                  TwiddleCache::get(n).data(), inverse};
  void (*chunk)(const Axis&, std::size_t, std::size_t) =
      isa == Isa::kAvx512 ? transform_chunk_avx512 : transform_chunk_sse2;
  parallel::parallel_for(0, total / n, pencil_grain(n),
                         [axis, chunk](std::size_t begin, std::size_t end) {
                           chunk(axis, begin, end);
                         });
}

}  // namespace

void fft(std::vector<Complex>& data, bool inverse) {
  GC_CHECK_MSG(is_pow2(data.size()), "FFT size must be a power of two");
  // The lockstep kernel at its narrowest: one SSE2 register per part, one
  // of its two lanes live.
  const RowBuffer<Lanes<V2, 1>> rows(data.size());
  Complex* line[] = {data.data()};
  transform_lines(rows.get(), line, 1, data.size(), 1,
                  TwiddleCache::get(data.size()).data(), inverse);
}

void fft3(std::vector<Complex>& data, std::size_t n0, std::size_t n1,
          std::size_t n2, bool inverse) {
  fft3(host_isa(), data, n0, n1, n2, inverse);
}

void fft3(Isa isa, std::vector<Complex>& data, std::size_t n0,
          std::size_t n1, std::size_t n2, bool inverse) {
  GC_CHECK(data.size() == n0 * n1 * n2);
  GC_CHECK_MSG(is_pow2(n0) && is_pow2(n1) && is_pow2(n2),
               "FFT dims must be powers of two");
  GC_CHECK_MSG(host_supports(isa), "fft3: the host cannot run this ISA");
  // Axis 2 (contiguous rows), then axis 1 (stride n2), then axis 0
  // (stride n1*n2): the order fixes the rounding of every output.
  Complex* d = data.data();
  transform_axis(isa, d, data.size(), n2, 1, inverse);
  transform_axis(isa, d, data.size(), n1, n2, inverse);
  transform_axis(isa, d, data.size(), n0, n1 * n2, inverse);
}

}  // namespace gc::math
