#include "math/fft.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "common/log.hpp"
#include "parallel/pool.hpp"

namespace gc::math {

namespace {

/// What every transform of size n shares: the twiddles tw[j] =
/// exp(-2*pi*i*j/n), j < n/2 (direct cos/sin per entry, no incremental
/// recurrence accumulating rounding error), and the bit-reversal
/// permutation rev[k] of the log2(n)-bit index k. Computed once per size
/// and fetched once per axis of a 3D transform, before fanning out.
struct Plan {
  std::vector<Complex> tw;
  std::vector<std::uint32_t> rev;
};

class PlanCache {
 public:
  static const Plan& get(std::size_t n) {
    static PlanCache cache;
    {
      std::shared_lock<std::shared_mutex> lock(cache.mutex_);
      if (auto it = cache.plans_.find(n); it != cache.plans_.end()) {
        return *it->second;
      }
    }
    std::unique_lock<std::shared_mutex> lock(cache.mutex_);
    auto& slot = cache.plans_[n];
    if (!slot) {
      auto plan = std::make_unique<Plan>();
      plan->tw.resize(std::max<std::size_t>(n / 2, 1));
      for (std::size_t j = 0; j < plan->tw.size(); ++j) {
        const double angle =
            -2.0 * M_PI * static_cast<double>(j) / static_cast<double>(n);
        plan->tw[j] = Complex(std::cos(angle), std::sin(angle));
      }
      plan->rev.resize(n);
      for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1) j ^= bit;
        j ^= bit;
        plan->rev[i] = static_cast<std::uint32_t>(j);
      }
      slot = std::move(plan);
    }
    return *slot;
  }

 private:
  std::shared_mutex mutex_;
  std::map<std::size_t, std::unique_ptr<Plan>> plans_;
};

/// Two or eight doubles in one register: the widths of SSE2 and AVX-512F.
/// Arithmetic on them is the IEEE add, subtract or multiply of each lane on
/// its own, so a lane computes exactly what the same scalar expression
/// computes. The library is compiled with -ffp-contract=off, so
/// no product is fused into a sum where the instruction set has FMA.
using V2 = double __attribute__((vector_size(16)));
using V8 = double __attribute__((vector_size(64)));

/// Shuffle masks for V2 and V8: entry i names the lane of the pair (a, b)
/// that lane i of the result takes, b's lanes counting on from a's.
using M2 = long __attribute__((vector_size(16)));
using M8 = long __attribute__((vector_size(64)));

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

// Lane moves. Every helper is always inlined, like the kernels below: the
// instances are built inside target functions, and a function they call
// out of line would be compiled for baseline x86-64 instead.

/// The L doubles (L/2 complex values) at p, at any alignment, into v.
/// Vectors pass by reference: returning a 64-byte one by value would
/// change the ABI of a baseline function.
template <typename V>
[[gnu::always_inline]] inline void load(const Complex* p, V& v) {
  std::memcpy(&v, static_cast<const void*>(p), sizeof(V));
}

template <typename V>
[[gnu::always_inline]] inline void store(Complex* p, const V& v) {
  std::memcpy(static_cast<void*>(p), &v, sizeof(V));
}

/// a and b each hold L/2 complex values as (re, im) pairs: `re` gets the
/// reals of a's values then b's, `im` their imaginaries.
template <typename V>
[[gnu::always_inline]] inline void split(const V& a, const V& b, V& re,
                                         V& im) {
  if constexpr (sizeof(V) == sizeof(V2)) {
    re = __builtin_shuffle(a, b, M2{0, 2});
    im = __builtin_shuffle(a, b, M2{1, 3});
  } else {
    re = __builtin_shuffle(a, b, M8{0, 2, 4, 6, 8, 10, 12, 14});
    im = __builtin_shuffle(a, b, M8{1, 3, 5, 7, 9, 11, 13, 15});
  }
}

/// The inverse of split: L complex values, (re, im) pairs, the first L/2
/// into a, the rest into b.
template <typename V>
[[gnu::always_inline]] inline void join(const V& re, const V& im, V& a,
                                        V& b) {
  if constexpr (sizeof(V) == sizeof(V2)) {
    a = __builtin_shuffle(re, im, M2{0, 2});
    b = __builtin_shuffle(re, im, M2{1, 3});
  } else {
    a = __builtin_shuffle(re, im, M8{0, 8, 1, 9, 2, 10, 3, 11});
    b = __builtin_shuffle(re, im, M8{4, 12, 5, 13, 6, 14, 7, 15});
  }
}

/// One round of an 8x8 transpose: swaps bit `Bit` of the row index with
/// the same bit of the column index. Row r of the matrix is register t[r];
/// `low` and `high` build the new rows r and r | Bit (r without Bit) from
/// the old pair.
template <std::size_t Bit>
[[gnu::always_inline]] inline void swap_index_bit(V8* t, const M8& low,
                                                  const M8& high) {
#pragma GCC unroll 8
  for (std::size_t r = 0; r < 8; ++r) {
    if (r & Bit) continue;
    const V8 a = t[r];
    const V8 b = t[r | Bit];
    t[r] = __builtin_shuffle(a, b, low);
    t[r | Bit] = __builtin_shuffle(a, b, high);
  }
}

/// Transposes the L x L matrix of doubles whose row r is t[r], in place.
template <typename V>
[[gnu::always_inline]] inline void transpose(V* t) {
  if constexpr (sizeof(V) == sizeof(V2)) {
    const V a = t[0];
    const V b = t[1];
    t[0] = __builtin_shuffle(a, b, M2{0, 2});
    t[1] = __builtin_shuffle(a, b, M2{1, 3});
  } else {
    swap_index_bit<1>(t, M8{0, 8, 2, 10, 4, 12, 6, 14},
                      M8{1, 9, 3, 11, 5, 13, 7, 15});
    swap_index_bit<2>(t, M8{0, 1, 8, 9, 4, 5, 12, 13},
                      M8{2, 3, 10, 11, 6, 7, 14, 15});
    swap_index_bit<4>(t, M8{0, 1, 2, 3, 8, 9, 10, 11},
                      M8{4, 5, 6, 7, 12, 13, 14, 15});
  }
}

/// The line kernel every transform goes through: an in-place radix-2
/// transform of the G*L length-n lines held element-major in `x` (row k is
/// element k of every line), whose rows the gather already put in
/// bit-reversed order. The butterfly passes run in textbook order. The
/// butterflies of one pass touch disjoint elements, so they run twiddle by
/// twiddle (one table load per twiddle) without changing any result. Every
/// lane does the textbook butterfly's operations in its order, the
/// multiply being `mul`'s four products and two sums, so each line's
/// output is bit-identical to the textbook loop on std::complex. `tw` is
/// the size-n twiddle table.
template <typename V, std::size_t G>
[[gnu::always_inline]] inline void transform_rows(Lanes<V, G>* x,
                                                  std::size_t n,
                                                  const Complex* tw,
                                                  bool inverse) {
  constexpr std::size_t L = Lanes<V, G>::kLanes;
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

/// One axis of a 3D transform: line l of the `total / n` lines starts at
/// (l >> shift) * n * stride + (l & (stride - 1)) and steps by `stride` (a
/// power of two, 1 << shift).
struct Axis {
  Complex* data;
  std::size_t n;
  std::size_t stride;
  int shift;
  const Complex* tw;
  const std::uint32_t* rev;
  bool inverse;
};

/// Gathers elements [k0, k0 + C) of a block batch, C = L/2: in each lane
/// group g, the registers holding those elements of its L lines transpose
/// into the reals and imaginaries of each element, element k going to row
/// rev[k].
template <typename V, std::size_t G>
[[gnu::always_inline]] inline void gather_block(Lanes<V, G>* rows,
                                                Complex* const* line,
                                                std::size_t k0,
                                                const std::uint32_t* rev) {
  constexpr std::size_t L = Lanes<V, G>::kLanes;
  for (std::size_t g = 0; g < G; ++g) {
    V t[L] = {};
    for (std::size_t r = 0; r < L; ++r) load(line[g * L + r] + k0, t[r]);
    transpose(t);
    for (std::size_t e = 0; e < L / 2; ++e) {
      rows[rev[k0 + e]].re[g] = t[2 * e];
      rows[rev[k0 + e]].im[g] = t[2 * e + 1];
    }
  }
}

/// The inverse of gather_block for the transformed rows, which are in
/// natural order: rows [k0, k0 + C) back into elements [k0, k0 + C).
template <typename V, std::size_t G>
[[gnu::always_inline]] inline void scatter_block(const Lanes<V, G>* rows,
                                                 Complex* const* line,
                                                 std::size_t k0) {
  constexpr std::size_t L = Lanes<V, G>::kLanes;
  for (std::size_t g = 0; g < G; ++g) {
    V t[L] = {};
    for (std::size_t e = 0; e < L / 2; ++e) {
      t[2 * e] = rows[k0 + e].re[g];
      t[2 * e + 1] = rows[k0 + e].im[g];
    }
    transpose(t);
    for (std::size_t r = 0; r < L; ++r) store(line[g * L + r] + k0, t[r]);
  }
}

/// Transforms `width` <= G*L lines of `axis`, line b starting at line[b]:
/// gathers them element-major into `rows` (n entries), element k into row
/// rev[k], transforms in lockstep, and scatters the live lanes back. The
/// batch picks how its rows move; every way moves the same values.
///  - Whole rows: a full batch of strided lines next to each other in
///    memory (axes 1 and 0). Element k of all G*L lines is G*L adjacent
///    complex values, loaded whole and split into reals and imaginaries.
///  - Blocks: a full batch of stride-1 lines (axis 2) with at least C =
///    L/2 points, C being one register's complex count. A register holds
///    C elements of one line; L such registers, one per line of a lane
///    group, transpose into the reals and imaginaries of those elements.
///  - Lanes: any other batch (partial, lines not evenly spaced, or lines
///    too short for a block), one value per lane, lanes past `width`
///    zeroed.
template <typename V, std::size_t G>
[[gnu::always_inline]] inline void transform_lines(
    Lanes<V, G>* rows, Complex* const* line, std::size_t width,
    const Axis& axis) {
  constexpr std::size_t L = Lanes<V, G>::kLanes;
  constexpr std::size_t kWidth = Lanes<V, G>::kWidth;
  constexpr std::size_t C = L / 2;  // complex values per register
  const std::size_t n = axis.n;
  const std::size_t stride = axis.stride;
  const std::uint32_t* rev = axis.rev;
  const bool full = width == kWidth;
  if (full && stride > 1 && line[kWidth - 1] == line[0] + (kWidth - 1)) {
    for (std::size_t k = 0; k < n; ++k) {
      const Complex* src = line[0] + k * stride;
      Lanes<V, G>& row = rows[rev[k]];
      for (std::size_t g = 0; g < G; ++g) {
        V a = {};
        V b = {};
        load(src + g * L, a);
        load(src + g * L + C, b);
        split(a, b, row.re[g], row.im[g]);
      }
    }
    transform_rows(rows, n, axis.tw, axis.inverse);
    for (std::size_t k = 0; k < n; ++k) {
      Complex* dst = line[0] + k * stride;
      const Lanes<V, G>& row = rows[k];
      for (std::size_t g = 0; g < G; ++g) {
        V a = {};
        V b = {};
        join(row.re[g], row.im[g], a, b);
        store(dst + g * L, a);
        store(dst + g * L + C, b);
      }
    }
  } else if (full && stride == 1 && n >= C) {
    for (std::size_t k0 = 0; k0 < n; k0 += C) gather_block(rows, line, k0, rev);
    transform_rows(rows, n, axis.tw, axis.inverse);
    for (std::size_t k0 = 0; k0 < n; k0 += C) scatter_block(rows, line, k0);
  } else {
    for (std::size_t k = 0; k < n; ++k) {
      Lanes<V, G>& row = rows[rev[k]];
      for (std::size_t b = 0; b < kWidth; ++b) {
        const Complex z = b < width ? line[b][k * stride] : Complex();
        row.re[b / L][b % L] = z.real();
        row.im[b / L][b % L] = z.imag();
      }
    }
    transform_rows(rows, n, axis.tw, axis.inverse);
    for (std::size_t k = 0; k < n; ++k) {
      const Lanes<V, G>& row = rows[k];
      for (std::size_t b = 0; b < width; ++b) {
        line[b][k * stride] =
            Complex(row.re[b / L][b % L], row.im[b / L][b % L]);
      }
    }
  }
}

/// Scheduling grain for the pencil loops: enough lines per chunk that the
/// dispatch cost is negligible next to the O(n log n) line transforms.
std::size_t pencil_grain(std::size_t line_length) {
  return std::max<std::size_t>(1, 2048 / std::max<std::size_t>(line_length, 1));
}

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
    transform_lines(rows.get(), line, width, axis);
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
  const Plan& plan = PlanCache::get(n);
  const Axis axis{d,
                  n,
                  stride,
                  std::countr_zero(stride),
                  plan.tw.data(),
                  plan.rev.data(),
                  inverse};
  void (*chunk)(const Axis&, std::size_t, std::size_t) =
      isa == Isa::kAvx512 ? transform_chunk_avx512 : transform_chunk_sse2;
  parallel::parallel_for(0, total / n, pencil_grain(n),
                         [axis, chunk](std::size_t begin, std::size_t end) {
                           chunk(axis, begin, end);
                         });
}

}  // namespace

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
