// Dense 3D grid with periodic indexing.
//
// Shared by the IC generator (density/displacement fields), the PM solver
// (mass and potential meshes) and the halo finder (linked cells).
#pragma once

#include <cstddef>
#include <vector>

#include "common/log.hpp"

namespace gc::math {

/// Periodic index: x wrapped onto [0, n) for n > 0, the value
/// ((x % n) + n) % n gives for every x. Stencils step at most one period
/// outside the mesh, so x in [-n, 2n) costs one compare and one add or
/// subtract; any other x falls back to the two modulos. Every periodic
/// index wrap in the numerics goes through here.
[[nodiscard]] constexpr long wrap(long x, long n) {
  if (x < 0) {
    if (x >= -n) return x + n;
  } else if (x < n) {
    return x;
  } else if (x - n < n) {
    return x - n;
  }
  return ((x % n) + n) % n;
}

template <typename T>
class Grid3 {
 public:
  Grid3() = default;
  explicit Grid3(std::size_t n, T fill = T{}) : n_(n), data_(n * n * n, fill) {}

  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  [[nodiscard]] T& at(std::size_t i, std::size_t j, std::size_t k) {
    return data_[(i * n_ + j) * n_ + k];
  }
  [[nodiscard]] const T& at(std::size_t i, std::size_t j,
                            std::size_t k) const {
    return data_[(i * n_ + j) * n_ + k];
  }

  /// Periodic (wrapping) access with possibly negative indexes.
  [[nodiscard]] T& atp(long i, long j, long k) {
    return data_[index_p(i, j, k)];
  }
  [[nodiscard]] const T& atp(long i, long j, long k) const {
    return data_[index_p(i, j, k)];
  }

  [[nodiscard]] std::size_t index_p(long i, long j, long k) const {
    const long n = static_cast<long>(n_);
    const auto w = [n](long x) { return static_cast<std::size_t>(wrap(x, n)); };
    return (w(i) * n_ + w(j)) * n_ + w(k);
  }

  [[nodiscard]] std::vector<T>& raw() { return data_; }
  [[nodiscard]] const std::vector<T>& raw() const { return data_; }

  void fill(T value) { data_.assign(data_.size(), value); }

  [[nodiscard]] T sum() const {
    T total{};
    for (const T& v : data_) total += v;
    return total;
  }

 private:
  std::size_t n_ = 0;
  std::vector<T> data_;
};

}  // namespace gc::math
