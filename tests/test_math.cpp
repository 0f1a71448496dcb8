// Tests for the FFT, quadrature/ODE helpers and the 3D grid.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/rng.hpp"
#include "math/fft.hpp"
#include "math/grid3.hpp"
#include "math/integrate.hpp"
#include "parallel/pool.hpp"

namespace gc::math {
namespace {

/// One line through fft3, laid out 1x1xn (the stride-1 axis 2) or nx1x1
/// (axis 0, the last one transformed).
enum class LineShape { kAxis2, kAxis0 };

void fft_line(std::vector<Complex>& data, LineShape shape, bool inverse) {
  const std::size_t n = data.size();
  if (shape == LineShape::kAxis2) {
    fft3(data, 1, 1, n, inverse);
  } else {
    fft3(data, n, 1, 1, inverse);
  }
}

constexpr LineShape kLineShapes[] = {LineShape::kAxis2, LineShape::kAxis0};

class FftRoundtrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundtrip, InverseRecovers) {
  const std::size_t n = GetParam();
  for (const LineShape shape : kLineShapes) {
    Rng rng(n);
    std::vector<Complex> data(n);
    for (auto& v : data) v = {rng.normal(), rng.normal()};
    const std::vector<Complex> original = data;
    fft_line(data, shape, false);
    fft_line(data, shape, true);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(data[i].real(), original[i].real(), 1e-10);
      EXPECT_NEAR(data[i].imag(), original[i].imag(), 1e-10);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundtrip,
                         ::testing::Values(1, 2, 4, 8, 64, 256, 1024));

TEST(Fft, DeltaFunctionIsFlat) {
  for (const LineShape shape : kLineShapes) {
    std::vector<Complex> data(16, Complex(0.0, 0.0));
    data[0] = Complex(1.0, 0.0);
    fft_line(data, shape, false);
    for (const Complex& v : data) {
      EXPECT_NEAR(v.real(), 1.0, 1e-12);
      EXPECT_NEAR(v.imag(), 0.0, 1e-12);
    }
  }
}

TEST(Fft, SingleModeLandsInOneBin) {
  const std::size_t n = 64;
  const int k = 5;
  for (const LineShape shape : kLineShapes) {
    std::vector<Complex> data(n);
    for (std::size_t i = 0; i < n; ++i) {
      data[i] = Complex(
          std::cos(2.0 * M_PI * k * static_cast<double>(i) / n), 0.0);
    }
    fft_line(data, shape, false);
    // cos -> two symmetric spikes at k and n-k of height n/2.
    for (std::size_t i = 0; i < n; ++i) {
      const double expected =
          (i == static_cast<std::size_t>(k) || i == n - k) ? n / 2.0 : 0.0;
      EXPECT_NEAR(std::abs(data[i]), expected, 1e-9) << "bin " << i;
    }
  }
}

TEST(Fft, ParsevalHolds) {
  const std::size_t n = 256;
  for (const LineShape shape : kLineShapes) {
    Rng rng(3);
    std::vector<Complex> data(n);
    double time_energy = 0.0;
    for (auto& v : data) {
      v = {rng.normal(), rng.normal()};
      time_energy += std::norm(v);
    }
    fft_line(data, shape, false);
    double freq_energy = 0.0;
    for (const auto& v : data) freq_energy += std::norm(v);
    EXPECT_NEAR(freq_energy, time_energy * n, time_energy * n * 1e-12);
  }
}

TEST(Fft, Linearity) {
  const std::size_t n = 32;
  for (const LineShape shape : kLineShapes) {
    Rng rng(4);
    std::vector<Complex> a(n);
    std::vector<Complex> b(n);
    std::vector<Complex> sum(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = {rng.normal(), 0.0};
      b[i] = {rng.normal(), 0.0};
      sum[i] = a[i] + 2.0 * b[i];
    }
    fft_line(a, shape, false);
    fft_line(b, shape, false);
    fft_line(sum, shape, false);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(std::abs(sum[i] - (a[i] + 2.0 * b[i])), 0.0, 1e-9);
    }
  }
}

TEST(Fft3, RoundtripCube) {
  const std::size_t n = 8;
  Rng rng(5);
  std::vector<Complex> data(n * n * n);
  for (auto& v : data) v = {rng.normal(), 0.0};
  const auto original = data;
  fft3(data, n, false);
  fft3(data, n, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), original[i].real(), 1e-10);
  }
}

TEST(Fft3, RoundtripNonCubic) {
  const std::size_t n0 = 4;
  const std::size_t n1 = 8;
  const std::size_t n2 = 2;
  Rng rng(6);
  std::vector<Complex> data(n0 * n1 * n2);
  for (auto& v : data) v = {rng.normal(), rng.normal()};
  const auto original = data;
  fft3(data, n0, n1, n2, false);
  fft3(data, n0, n1, n2, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(std::abs(data[i] - original[i]), 0.0, 1e-10);
  }
}

TEST(Fft3, PlaneWaveSingleBin) {
  const std::size_t n = 8;
  std::vector<Complex> data(n * n * n);
  // exp(i 2 pi (2 x / n)) -> spike at (2, 0, 0).
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) {
        const double phase = 2.0 * M_PI * 2.0 * static_cast<double>(i) / n;
        data[(i * n + j) * n + k] = Complex(std::cos(phase), std::sin(phase));
      }
    }
  }
  fft3(data, n, false);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) {
        const double expected = (i == 2 && j == 0 && k == 0)
                                    ? static_cast<double>(n * n * n)
                                    : 0.0;
        EXPECT_NEAR(std::abs(data[(i * n + j) * n + k]), expected, 1e-8);
      }
    }
  }
}

TEST(Fft, FreqIndexConvention) {
  EXPECT_EQ(freq_index(0, 8), 0);
  EXPECT_EQ(freq_index(3, 8), 3);
  EXPECT_EQ(freq_index(4, 8), 4);   // Nyquist stays positive
  EXPECT_EQ(freq_index(5, 8), -3);
  EXPECT_EQ(freq_index(7, 8), -1);
}

TEST(Fft, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
}

// ---------- FFT byte oracle ----------

// The textbook iterative radix-2 transform on std::complex, strided, one
// pencil at a time: the reference fft3 must reproduce byte for byte.
// Its multiply is std::complex operator*, so this also pins `mul` to it.
void reference_fft_strided(Complex* data, std::size_t n, std::size_t stride,
                           bool inverse) {
  std::vector<Complex> tw(std::max<std::size_t>(n / 2, 1));
  for (std::size_t j = 0; j < tw.size(); ++j) {
    const double angle =
        -2.0 * M_PI * static_cast<double>(j) / static_cast<double>(n);
    tw[j] = Complex(std::cos(angle), std::sin(angle));
  }
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i * stride], data[j * stride]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t step = n / len;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t j = 0; j < len / 2; ++j) {
        const Complex w = inverse ? std::conj(tw[j * step]) : tw[j * step];
        Complex& a = data[(i + j) * stride];
        Complex& b = data[(i + j + len / 2) * stride];
        const Complex u = a;
        const Complex v = b * w;
        a = u + v;
        b = u - v;
      }
    }
  }
  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) data[i * stride] *= scale;
  }
}

void reference_fft3(std::vector<Complex>& data, std::size_t n0,
                    std::size_t n1, std::size_t n2, bool inverse) {
  Complex* d = data.data();
  for (std::size_t line = 0; line < n0 * n1; ++line) {
    reference_fft_strided(d + line * n2, n2, 1, inverse);
  }
  for (std::size_t line = 0; line < n0 * n2; ++line) {
    reference_fft_strided(d + (line / n2) * n1 * n2 + line % n2, n1, n2,
                          inverse);
  }
  for (std::size_t line = 0; line < n1 * n2; ++line) {
    reference_fft_strided(d + line, n0, n1 * n2, inverse);
  }
}

/// Gaussian data with exact zeros of both signs mixed in, so signed-zero
/// handling in the butterflies is exercised too.
std::vector<Complex> oracle_input(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> data(size);
  for (std::size_t i = 0; i < size; ++i) {
    data[i] = {rng.normal(), rng.normal()};
    if (i % 7 == 3) data[i] = {-0.0, data[i].imag()};
    if (i % 11 == 5) data[i] = {data[i].real(), -0.0};
    if (i % 13 == 6) data[i] = {0.0, 0.0};
  }
  return data;
}

bool same_bytes(const std::vector<Complex>& a, const std::vector<Complex>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0;
}

/// Every fft3 instance this host can run. Prints which run and which the
/// host cannot run, so a missing instance never passes unnoticed.
std::vector<Isa> fft3_instances() {
  std::vector<Isa> isas;
  std::string ran;
  std::string not_run;
  for (const Isa isa : {Isa::kSse2, Isa::kAvx512}) {
    if (host_supports(isa)) {
      isas.push_back(isa);
      ran += std::string(" ") + isa_name(isa);
    } else {
      not_run += std::string(" ") + isa_name(isa);
    }
  }
  std::printf("[ INSTANCE ] fft3 ran:%s; not supported by this host:%s\n",
              ran.c_str(), not_run.empty() ? " none" : not_run.c_str());
  return isas;
}

TEST(FftOracle, LineMatchesReferenceBytes) {
  // One line of 1 to 1024 points as 1x1xn and as nx1x1: a batch with one
  // live lane. n = 1 has no butterfly at all and n = 2 only the first
  // pass.
  for (const Isa isa : fft3_instances()) {
    for (const std::size_t threads : {1, 4}) {
      parallel::set_thread_count(threads);
      for (std::size_t n = 1; n <= 1024; n <<= 1) {
        for (const bool inverse : {false, true}) {
          const std::vector<Complex> input = oracle_input(n, n);
          std::vector<Complex> want = input;
          reference_fft_strided(want.data(), n, 1, inverse);
          std::vector<Complex> along2 = input;
          fft3(isa, along2, 1, 1, n, inverse);
          std::vector<Complex> along0 = input;
          fft3(isa, along0, n, 1, 1, inverse);
          EXPECT_TRUE(same_bytes(along2, want))
              << isa_name(isa) << " 1x1x" << n << " inverse=" << inverse
              << " threads=" << threads;
          EXPECT_TRUE(same_bytes(along0, want))
              << isa_name(isa) << " " << n << "x1x1 inverse=" << inverse
              << " threads=" << threads;
        }
      }
    }
  }
  parallel::set_thread_count(0);
}

TEST(FftOracle, CubeMatchesReferenceBytesAtAnyThreadCount) {
  struct Shape {
    std::size_t n0, n1, n2;
  };
  // A batch moves its rows one of three ways (fft.cpp, transform_lines):
  // whole rows (a full batch of adjacent strided lines), register blocks
  // (a full batch of stride-1 lines of at least one register's complex
  // count: 1 for SSE2, 4 for AVX-512) or lane by lane (anything else).
  // Past the cubes:
  //  - batches of eight lines partly empty: strides below eight, line
  //    counts that are not a multiple of eight, single lines, and length-1
  //    axes;
  //  - AVX-512 batches of sixteen half full: eight lines in all, or axes
  //    of 256 and 1024 points, whose pool chunks at 4 threads hold eight
  //    and two lines;
  //  - stride 8 ({16, 8, 8}): whole rows at eight lines, but two runs of
  //    eight in one batch of sixteen, lane by lane;
  //  - stride 16 ({8, 16, 16}, {1024, 2, 8}, {2, 1024, 16}): whole rows
  //    for both instances, at 1024 points on axes 0 and 1;
  //  - stride-1 lines of 4 ({2, 8, 4}): one AVX-512 block per lane group;
  //    of 2 and 1 ({2, 8, 2}, {8, 8, 2}, {16, 16, 1}): full batches too
  //    short for an AVX-512 block, lane by lane there, blocks for SSE2;
  //  - 1024-point stride-1 lines in full batches ({16, 2, 1024}).
  const Shape shapes[] = {
      {4, 4, 4},    {8, 8, 8},   {16, 16, 16}, {32, 32, 32},  {64, 64, 64},
      {4, 16, 8},   {2, 4, 8},   {1, 1, 32},   {1, 32, 1},    {32, 1, 1},
      {2, 2, 2},    {8, 1, 4},   {1, 2, 64},   {16, 2, 1},    {1, 1, 1},
      {2, 4, 256},  {256, 4, 4}, {4, 256, 2},  {1, 1024, 4},  {16, 8, 8},
      {8, 16, 16},  {2, 8, 4},   {2, 8, 2},    {8, 8, 2},     {16, 16, 1},
      {1024, 2, 8}, {2, 1024, 16}, {16, 2, 1024}};
  const std::vector<Isa> isas = fft3_instances();
  for (const Shape& s : shapes) {
    for (const bool inverse : {false, true}) {
      const std::vector<Complex> input =
          oracle_input(s.n0 * s.n1 * s.n2, s.n0 + 3 * s.n1 + 7 * s.n2);
      std::vector<Complex> want = input;
      reference_fft3(want, s.n0, s.n1, s.n2, inverse);
      for (const Isa isa : isas) {
        for (const std::size_t threads : {1, 4}) {
          parallel::set_thread_count(threads);
          std::vector<Complex> got = input;
          fft3(isa, got, s.n0, s.n1, s.n2, inverse);
          EXPECT_TRUE(same_bytes(got, want))
              << isa_name(isa) << " " << s.n0 << "x" << s.n1 << "x" << s.n2
              << " inverse=" << inverse << " threads=" << threads;
        }
      }
    }
  }
  parallel::set_thread_count(0);
}

TEST(Isa, HostIsaIsTheWidestSupported) {
  // fft3 and the PM force gather without an ISA run this one.
  const Isa isa = host_isa();
  EXPECT_TRUE(host_supports(isa));
  EXPECT_TRUE(host_supports(Isa::kSse2));
  EXPECT_EQ(host_supports(Isa::kAvx512), isa == Isa::kAvx512);
  std::printf("[ INSTANCE ] host_isa: %s\n", isa_name(isa));
}

TEST(FftOracle, ThreeHundredRoundTripsStayOnTheReference) {
  // Rounding differences compound over repeated transforms: 300 forward +
  // inverse round trips must still match the reference bit for bit, on a
  // line and on a cube.
  for (const Isa isa : fft3_instances()) {
    std::vector<Complex> line = oracle_input(64, 5);
    std::vector<Complex> line_want = line;
    for (int trip = 0; trip < 300; ++trip) {
      for (const bool inverse : {false, true}) {
        fft3(isa, line, 1, 1, 64, inverse);
        reference_fft_strided(line_want.data(), 64, 1, inverse);
      }
      ASSERT_TRUE(same_bytes(line, line_want))
          << isa_name(isa) << " line, trip " << trip;
    }
    std::vector<Complex> cube = oracle_input(8 * 8 * 8, 6);
    std::vector<Complex> cube_want = cube;
    for (int trip = 0; trip < 300; ++trip) {
      for (const bool inverse : {false, true}) {
        fft3(isa, cube, 8, 8, 8, inverse);
        reference_fft3(cube_want, 8, 8, 8, inverse);
      }
      ASSERT_TRUE(same_bytes(cube, cube_want))
          << isa_name(isa) << " cube, trip " << trip;
    }
  }
}

TEST(FftOracle, MulMatchesOperatorBytes) {
  // Including the GRAFIC shape (0, s) * z, where folding the zero real part
  // away would flip signed zeros.
  const Complex cases[][2] = {{{1.5, -2.25}, {0.75, 3.0}},
                              {{0.0, 2.0}, {1.0, 0.0}},
                              {{0.0, 2.0}, {-0.0, 1.0}},
                              {{0.0, -3.0}, {4.0, -0.0}},
                              {{0.0, 0.5}, {-0.0, -0.0}},
                              {{-0.0, 0.0}, {2.0, 3.0}}};
  for (const auto& c : cases) {
    const Complex got = mul(c[0], c[1]);
    const Complex want = c[0] * c[1];
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(Complex)), 0)
        << c[0] << " * " << c[1];
  }
}

// ---------- integrate ----------

TEST(Integrate, SimpsonPolynomialExact) {
  // Simpson integrates cubics exactly.
  const double integral =
      simpson([](double x) { return x * x * x - 2.0 * x + 1.0; }, 0.0, 2.0, 2);
  EXPECT_NEAR(integral, 4.0 - 4.0 + 2.0, 1e-12);
}

TEST(Integrate, SimpsonTranscendental) {
  const double integral = simpson([](double x) { return std::sin(x); }, 0.0,
                                  M_PI, 128);
  EXPECT_NEAR(integral, 2.0, 1e-8);
}

TEST(Integrate, Rk4Exponential) {
  // y' = y, y(0) = 1 -> y(1) = e.
  const double y = rk4([](double, double y) { return y; }, 0.0, 1.0, 1.0, 64);
  EXPECT_NEAR(y, M_E, 1e-8);
}

TEST(Integrate, Rk4System) {
  // Harmonic oscillator: a' = b, b' = -a; (1, 0) at t=0 -> (cos t, -sin t).
  const Vec2 y = rk4_2(
      [](double, const Vec2& v) {
        return Vec2{v.b, -v.a};
      },
      0.0, Vec2{1.0, 0.0}, M_PI / 2.0, 256);
  EXPECT_NEAR(y.a, 0.0, 1e-8);
  EXPECT_NEAR(y.b, -1.0, 1e-8);
}

// ---------- grid3 ----------

TEST(Grid3, BasicIndexing) {
  Grid3<int> grid(4);
  grid.at(1, 2, 3) = 42;
  EXPECT_EQ(grid.at(1, 2, 3), 42);
  EXPECT_EQ(grid.size(), 64u);
}

TEST(Grid3, PeriodicWrap) {
  Grid3<int> grid(4);
  grid.at(0, 0, 0) = 7;
  EXPECT_EQ(grid.atp(4, 4, 4), 7);
  EXPECT_EQ(grid.atp(-4, 0, 0), 7);
  EXPECT_EQ(grid.atp(-1, -1, -1), grid.at(3, 3, 3));
  EXPECT_EQ(grid.atp(8, -8, 12), 7);
}

TEST(Grid3, WrapEqualsDoubleModulo) {
  // [-3n, 3n] covers the one-step fast path [-n, 2n) and the modulo
  // fallback on both sides of it.
  for (const long n : {1L, 2L, 3L, 16L, 32L, 112L}) {
    for (long x = -3 * n; x <= 3 * n; ++x) {
      ASSERT_EQ(wrap(x, n), ((x % n) + n) % n) << "x=" << x << " n=" << n;
    }
    for (const long x : {-1000000007L, 1000000007L, -(1L << 62), 1L << 62}) {
      ASSERT_EQ(wrap(x, n), ((x % n) + n) % n) << "x=" << x << " n=" << n;
    }
  }
}

TEST(Grid3, FillAndSum) {
  Grid3<double> grid(3, 2.0);
  EXPECT_DOUBLE_EQ(grid.sum(), 54.0);
  grid.fill(0.5);
  EXPECT_DOUBLE_EQ(grid.sum(), 13.5);
}

}  // namespace
}  // namespace gc::math
