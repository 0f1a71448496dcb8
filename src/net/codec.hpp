// Binary serialization codec (our CORBA-CDR substitute).
//
// All middleware payloads — profile descriptions, argument descriptors,
// scalar values, file metadata, estimation vectors — cross the (modeled)
// wire as byte buffers produced by Writer and consumed by Reader.
// Fixed-width little-endian encoding; Reader is fail-soft: after the first
// underflow it returns zero values and ok() turns false, so malformed
// messages are rejected in one check at the end.
//
// One reserve per message: an encoder that knows its exact wire size
// passes it to the Writer, so the buffer is allocated once and never
// grows (capacity() == size() after take()). The candidate-list and
// profile-descriptor decoders bound a wire count by what the remaining
// bytes can hold before sizing anything from it, so a corrupt count fails
// the Reader instead of throwing.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace gc::net {

using Bytes = std::vector<std::uint8_t>;

class Writer {
 public:
  Writer() = default;
  /// Reserves `capacity` bytes up front: the encoder's exact wire size.
  explicit Writer(std::size_t capacity) { buf_.reserve(capacity); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put_raw(&v, sizeof v); }
  void u32(std::uint32_t v) { put_raw(&v, sizeof v); }
  void u64(std::uint64_t v) { put_raw(&v, sizeof v); }
  void i32(std::int32_t v) { put_raw(&v, sizeof v); }
  void i64(std::int64_t v) { put_raw(&v, sizeof v); }
  void f32(float v) { put_raw(&v, sizeof v); }
  void f64(double v) { put_raw(&v, sizeof v); }

  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    put_raw(s.data(), s.size());
  }

  void bytes(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    put_raw(data.data(), data.size());
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] Bytes take() { return std::move(buf_); }
  [[nodiscard]] const Bytes& data() const { return buf_; }

 private:
  void put_raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  Bytes buf_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}
  explicit Reader(const Bytes& data) : data_(data.data(), data.size()) {}

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int32_t i32() { return get<std::int32_t>(); }
  std::int64_t i64() { return get<std::int64_t>(); }
  float f32() { return get<float>(); }
  double f64() { return get<double>(); }

  std::string str() {
    const std::uint32_t n = u32();
    if (!check(n)) return {};
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  Bytes bytes() {
    const std::uint32_t n = u32();
    if (!check(n)) return {};
    Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
              data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  /// Reads nothing; fails the reader unless `n` more bytes remain. A
  /// decoder calls it before sizing a container from a wire count.
  bool need(std::size_t n) { return check(n); }

  /// True iff no read ran past the end so far.
  [[nodiscard]] bool ok() const { return ok_; }
  /// True iff the whole buffer was consumed and all reads succeeded.
  [[nodiscard]] bool done() const { return ok_ && pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  T get() {
    if (!check(sizeof(T))) return T{};
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  bool check(std::size_t n) {
    if (!ok_ || pos_ + n > data_.size()) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace gc::net
