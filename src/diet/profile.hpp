// DIET problem profiles.
//
// A ProfileDesc is the service's signature: a path (service name) plus the
// last_in / last_inout / last_out markers and per-argument descriptors —
// exactly the diet_profile_desc_t of Section 4.2.1. A Profile is a call
// instance: the same shape plus argument values. Clients and servers must
// use the same problem description for a request to match (Section 4.2.1).
#pragma once

#include <string>
#include <vector>

#include "diet/data.hpp"

namespace gc::diet {

class ProfileDesc {
 public:
  ProfileDesc() = default;

  /// `last_in`, `last_inout`, `last_out` follow DIET's convention: indexes
  /// of the last argument of each direction; -1 when a direction is empty;
  /// they must be non-decreasing and last_out + 1 is the argument count.
  ProfileDesc(std::string path, int last_in, int last_inout, int last_out);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] int last_in() const { return last_in_; }
  [[nodiscard]] int last_inout() const { return last_inout_; }
  [[nodiscard]] int last_out() const { return last_out_; }
  [[nodiscard]] int arg_count() const { return last_out_ + 1; }

  [[nodiscard]] Direction direction(int index) const {
    GC_CHECK(index >= 0 && index < arg_count());
    if (index <= last_in_) return Direction::kIn;
    if (index <= last_inout_) return Direction::kInOut;
    return Direction::kOut;
  }

  [[nodiscard]] ArgDesc& arg(int index) {
    GC_CHECK(index >= 0 && index < arg_count());
    return args_[static_cast<std::size_t>(index)];
  }
  [[nodiscard]] const ArgDesc& arg(int index) const {
    GC_CHECK(index >= 0 && index < arg_count());
    return args_[static_cast<std::size_t>(index)];
  }

  /// Validates the marker invariants (-1 <= last_in <= last_inout <=
  /// last_out, last_out >= 0 handled as empty profile when -1).
  [[nodiscard]] bool valid() const;

  /// Service-matching: same path, same markers, compatible arg types.
  [[nodiscard]] bool matches(const ProfileDesc& other) const;

  /// Serialized size: path, three markers and the argument descriptors.
  [[nodiscard]] std::size_t wire_size() const {
    return 4 + path_.size() + 3 * 4 + ArgDesc::kWireBytes * args_.size();
  }

  void serialize(net::Writer& w) const;
  static ProfileDesc deserialize(net::Reader& r);

 private:
  std::string path_;
  int last_in_ = -1;
  int last_inout_ = -1;
  int last_out_ = -1;
  std::vector<ArgDesc> args_;
};

class Profile {
 public:
  Profile() = default;

  /// Allocates all argument slots (diet_profile_alloc: "no allocation
  /// function is required, since diet_profile_alloc allocates all
  /// necessary memory for all argument descriptions", Section 4.3.2).
  Profile(std::string path, int last_in, int last_inout, int last_out);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] int last_in() const { return last_in_; }
  [[nodiscard]] int last_inout() const { return last_inout_; }
  [[nodiscard]] int last_out() const { return last_out_; }
  [[nodiscard]] int arg_count() const { return last_out_ + 1; }

  [[nodiscard]] Direction direction(int index) const;

  [[nodiscard]] ArgValue& arg(int index) {
    GC_CHECK(index >= 0 && index < arg_count());
    return args_[static_cast<std::size_t>(index)];
  }
  [[nodiscard]] const ArgValue& arg(int index) const {
    GC_CHECK(index >= 0 && index < arg_count());
    return args_[static_cast<std::size_t>(index)];
  }

  /// The descriptor view of this call (for submission and matching).
  [[nodiscard]] ProfileDesc desc() const;

  /// True when every IN/INOUT argument has a value.
  [[nodiscard]] bool inputs_complete() const;

  /// Wire volume of the request (IN + INOUT values).
  [[nodiscard]] std::int64_t in_bytes() const;

  /// File-argument bulk of the request / response. These bytes are not in
  /// the serialized payload (files travel out-of-band); the transport
  /// charges them via Envelope::modeled_extra_bytes.
  [[nodiscard]] std::int64_t in_file_bytes() const;
  [[nodiscard]] std::int64_t out_file_bytes() const;

  /// Serializes IN + INOUT argument values (client -> SED).
  void serialize_inputs(net::Writer& w) const;
  /// Rebuilds a callee-side profile for `service` from a request. The
  /// request's markers come off the wire, and only IN/INOUT values travel,
  /// so no byte count bounds last_out: the markers must be the service's,
  /// and the bytes must hold every IN/INOUT value. Otherwise an error,
  /// and nothing was sized from them.
  static gc::Result<Profile> deserialize_inputs(const ProfileDesc& service,
                                                int last_in, int last_inout,
                                                int last_out, net::Reader& r);

  /// Serializes INOUT + OUT argument values (SED -> client).
  void serialize_outputs(net::Writer& w) const;
  /// Merges INOUT + OUT values back into the caller's profile
  /// (Section 4.2.1's "brought back" semantics).
  void merge_outputs(net::Reader& r);

 private:
  std::string path_;
  int last_in_ = -1;
  int last_inout_ = -1;
  int last_out_ = -1;
  std::vector<ArgValue> args_;
};

}  // namespace gc::diet
