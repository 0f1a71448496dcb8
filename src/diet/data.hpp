// DIET data model: argument descriptors and values.
//
// Mirrors DIET_data.h from the paper: every service argument has a
// container type (scalar/vector/matrix/string/file), a base type, a
// persistence mode, and a direction implied by its index relative to the
// profile's last_in/last_inout/last_out markers (Section 4.2.1).
//
// File arguments never carry their contents through the middleware: like
// real DIET, the descriptor carries the path and size, and the transfer is
// priced separately (Envelope::modeled_extra_bytes); the file itself is on
// a filesystem both sides can reach (the paper's NFS assumption).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "common/log.hpp"
#include "common/status.hpp"
#include "net/codec.hpp"

namespace gc::diet {

enum class DataType : std::uint8_t {
  kScalar = 0,
  kVector = 1,
  kMatrix = 2,
  kString = 3,
  kFile = 4,
};

enum class BaseType : std::uint8_t {
  kChar = 0,
  kShort = 1,
  kInt = 2,
  kLongInt = 3,
  kFloat = 4,
  kDouble = 5,
};

/// DIET persistence modes. kVolatile data lives for one call; persistent
/// data stays on the server for reuse by later calls (Section 4.2.3 uses
/// DIET_VOLATILE throughout).
enum class Persistence : std::uint8_t {
  kVolatile = 0,
  kPersistentReturn = 1,
  kPersistent = 2,
  kSticky = 3,
};

enum class Direction : std::uint8_t { kIn = 0, kInOut = 1, kOut = 2 };

const char* to_string(DataType t);
const char* to_string(BaseType t);
const char* to_string(Persistence p);

/// Bytes per element of a base type.
std::size_t base_type_size(BaseType t);

/// Static description of one argument (what profile *descriptions* carry;
/// this is what travels in scheduling requests, not the data itself).
struct ArgDesc {
  DataType type = DataType::kScalar;
  BaseType base = BaseType::kInt;
  Persistence persistence = Persistence::kVolatile;
  std::uint64_t rows = 1;  ///< vector length / matrix rows / string length
  std::uint64_t cols = 1;  ///< matrix cols (1 otherwise)

  /// rows * cols, clamped so the product (and payload_bytes() derived
  /// from it) cannot wrap — a decoded descriptor may carry hostile shapes.
  [[nodiscard]] std::uint64_t element_count() const;
  [[nodiscard]] std::int64_t payload_bytes() const;

  /// Shape compatibility for service matching: same container and base
  /// type (sizes may differ call to call).
  [[nodiscard]] bool matches(const ArgDesc& other) const {
    return type == other.type && base == other.base;
  }

  /// Serialized size: three one-byte enums, rows and cols.
  static constexpr std::size_t kWireBytes = 3 + 8 + 8;

  void serialize(net::Writer& w) const;
  static ArgDesc deserialize(net::Reader& r);
};

/// One argument with its (possibly absent) value.
class ArgValue {
 public:
  ArgDesc desc;

  // --- typed setters (allocate/copy into the owned buffer) ---
  template <typename T>
  gc::Status set_scalar(T value, BaseType base, Persistence mode);

  template <typename T>
  gc::Status set_vector(std::span<const T> values, BaseType base,
                        Persistence mode);

  gc::Status set_string(const std::string& value, Persistence mode);

  /// File argument: `path` may be empty for a not-yet-produced OUT file.
  /// `modeled_bytes` < 0 prices the file at its size on disk now; >= 0
  /// pins the modeled transfer volume (a modeled output bigger than the
  /// laptop-scale file behind it).
  gc::Status set_file(const std::string& path, Persistence mode,
                      std::int64_t modeled_bytes = -1);

  // --- typed getters ---
  template <typename T>
  [[nodiscard]] gc::Result<T> get_scalar() const;

  template <typename T>
  [[nodiscard]] gc::Result<std::vector<T>> get_vector() const;

  [[nodiscard]] gc::Result<std::string> get_string() const;

  struct FileRef {
    std::string path;
    std::int64_t size_bytes;
  };
  [[nodiscard]] gc::Result<FileRef> get_file() const;

  // --- persistent data management (DIET's DTM) ---
  // A non-volatile argument carries a data id; once a server has stored
  // the value under that id, later calls can ship a *reference* (id only,
  // no payload) instead of the data. See diet/datamgr.hpp.

  /// Sets/returns the data id (empty = none assigned yet).
  void set_data_id(std::string id) { data_id_ = std::move(id); }
  [[nodiscard]] const std::string& data_id() const { return data_id_; }

  /// Content-derived id (FNV-1a of payload or file path+size); used by
  /// clients to auto-name persistent data.
  [[nodiscard]] std::string content_id() const;

  /// True when this argument is an id-only reference (no payload).
  [[nodiscard]] bool is_reference() const { return is_reference_; }

  /// Converts this argument into a reference: keeps the descriptor and
  /// data id, drops the payload. Requires a non-empty data id.
  void make_reference();

  /// Fills this reference in from a stored value (server side); keeps the
  /// reference's persistence mode.
  void materialize_from(const ArgValue& stored);

  [[nodiscard]] bool has_value() const { return has_value_; }
  [[nodiscard]] const net::Bytes& raw() const { return data_; }
  /// Pointer to the in-place value storage (the C API's diet_scalar_get
  /// hands this out; DIET lets callers read OUT data in place).
  [[nodiscard]] const void* data_ptr() const {
    return data_.empty() ? nullptr : data_.data();
  }
  [[nodiscard]] const std::string& file_path() const { return file_path_; }
  [[nodiscard]] std::int64_t modeled_bytes() const { return modeled_bytes_; }

  /// Wire volume this argument contributes when shipped.
  [[nodiscard]] std::int64_t wire_bytes() const;

  void serialize_value(net::Writer& w) const;
  void deserialize_value(net::Reader& r);
  /// Fewest bytes serialize_value writes: descriptor, flags, empty id.
  static constexpr std::size_t kMinWireBytes = ArgDesc::kWireBytes + 1 + 4;

  void clear_value() {
    has_value_ = false;
    is_reference_ = false;
    data_.clear();
    file_path_.clear();
    modeled_bytes_ = 0;
  }

 private:
  bool has_value_ = false;
  bool is_reference_ = false;
  net::Bytes data_;        ///< scalar/vector/matrix/string payload
  std::string file_path_;  ///< file argument path
  std::int64_t modeled_bytes_ = 0;
  std::string data_id_;    ///< persistent-data identity (may be empty)
};

// --- template implementations ---

template <typename T>
gc::Status ArgValue::set_scalar(T value, BaseType base, Persistence mode) {
  if (sizeof(T) != base_type_size(base)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "scalar size does not match base type");
  }
  desc.type = DataType::kScalar;
  desc.base = base;
  desc.persistence = mode;
  desc.rows = desc.cols = 1;
  data_.resize(sizeof(T));
  std::memcpy(data_.data(), &value, sizeof(T));
  file_path_.clear();
  modeled_bytes_ = 0;
  has_value_ = true;
  return Status::ok();
}

template <typename T>
gc::Status ArgValue::set_vector(std::span<const T> values, BaseType base,
                                Persistence mode) {
  if (sizeof(T) != base_type_size(base)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "element size does not match base type");
  }
  desc.type = DataType::kVector;
  desc.base = base;
  desc.persistence = mode;
  desc.rows = values.size();
  desc.cols = 1;
  data_.resize(values.size_bytes());
  if (!values.empty()) {
    std::memcpy(data_.data(), values.data(), values.size_bytes());
  }
  file_path_.clear();
  modeled_bytes_ = 0;
  has_value_ = true;
  return Status::ok();
}

template <typename T>
gc::Result<T> ArgValue::get_scalar() const {
  if (!has_value_ || desc.type != DataType::kScalar) {
    return make_error(ErrorCode::kFailedPrecondition, "no scalar value");
  }
  if (data_.size() != sizeof(T)) {
    return make_error(ErrorCode::kInvalidArgument, "scalar type mismatch");
  }
  T out;
  std::memcpy(&out, data_.data(), sizeof(T));
  return out;
}

template <typename T>
gc::Result<std::vector<T>> ArgValue::get_vector() const {
  if (!has_value_ || desc.type != DataType::kVector) {
    return make_error(ErrorCode::kFailedPrecondition, "no vector value");
  }
  if (data_.size() % sizeof(T) != 0) {
    return make_error(ErrorCode::kInvalidArgument, "vector type mismatch");
  }
  std::vector<T> out(data_.size() / sizeof(T));
  if (!out.empty()) std::memcpy(out.data(), data_.data(), data_.size());
  return out;
}

}  // namespace gc::diet
