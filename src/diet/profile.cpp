#include "diet/profile.hpp"

namespace gc::diet {

ProfileDesc::ProfileDesc(std::string path, int last_in, int last_inout,
                         int last_out)
    : path_(std::move(path)),
      last_in_(last_in),
      last_inout_(last_inout),
      last_out_(last_out) {
  GC_CHECK_MSG(valid(), "invalid profile markers for " + path_);
  args_.resize(static_cast<std::size_t>(arg_count()));
}

bool ProfileDesc::valid() const {
  return last_in_ >= -1 && last_in_ <= last_inout_ &&
         last_inout_ <= last_out_ && last_out_ >= 0;
}

bool ProfileDesc::matches(const ProfileDesc& other) const {
  if (path_ != other.path_ || last_in_ != other.last_in_ ||
      last_inout_ != other.last_inout_ || last_out_ != other.last_out_) {
    return false;
  }
  for (int i = 0; i < arg_count(); ++i) {
    if (!arg(i).matches(other.arg(i))) return false;
  }
  return true;
}

void ProfileDesc::serialize(net::Writer& w) const {
  w.str(path_);
  w.i32(last_in_);
  w.i32(last_inout_);
  w.i32(last_out_);
  for (const auto& a : args_) a.serialize(w);
}

ProfileDesc ProfileDesc::deserialize(net::Reader& r) {
  ProfileDesc d;
  d.path_ = r.str();
  d.last_in_ = r.i32();
  d.last_inout_ = r.i32();
  d.last_out_ = r.i32();
  if (!r.ok() || !d.valid()) return ProfileDesc();
  // A marker the remaining bytes cannot back is corrupt: sizing args_
  // from it alone could ask for billions of descriptors (and arg_count()
  // overflows at last_out = INT32_MAX).
  const std::size_t count = static_cast<std::size_t>(d.last_out_) + 1;
  if (!r.need(ArgDesc::kWireBytes * count)) return ProfileDesc();
  d.args_.resize(count);
  for (auto& a : d.args_) a = ArgDesc::deserialize(r);
  return d;
}

Profile::Profile(std::string path, int last_in, int last_inout, int last_out)
    : path_(std::move(path)),
      last_in_(last_in),
      last_inout_(last_inout),
      last_out_(last_out) {
  GC_CHECK_MSG(last_in >= -1 && last_in <= last_inout &&
                   last_inout <= last_out && last_out >= 0,
               "invalid profile markers for " + path_);
  args_.resize(static_cast<std::size_t>(arg_count()));
}

Direction Profile::direction(int index) const {
  GC_CHECK(index >= 0 && index < arg_count());
  if (index <= last_in_) return Direction::kIn;
  if (index <= last_inout_) return Direction::kInOut;
  return Direction::kOut;
}

ProfileDesc Profile::desc() const {
  ProfileDesc d(path_, last_in_, last_inout_, last_out_);
  for (int i = 0; i < arg_count(); ++i) d.arg(i) = arg(i).desc;
  return d;
}

bool Profile::inputs_complete() const {
  for (int i = 0; i <= last_inout_; ++i) {
    if (!arg(i).has_value()) return false;
  }
  return true;
}

std::int64_t Profile::in_bytes() const {
  std::int64_t total = 0;
  for (int i = 0; i <= last_inout_; ++i) total += arg(i).wire_bytes();
  return total;
}

std::int64_t Profile::in_file_bytes() const {
  std::int64_t total = 0;
  for (int i = 0; i <= last_inout_; ++i) {
    const ArgValue& a = arg(i);
    if (a.has_value() && a.desc.type == DataType::kFile) {
      total += a.modeled_bytes();
    }
  }
  return total;
}

std::int64_t Profile::out_file_bytes() const {
  std::int64_t total = 0;
  for (int i = last_in_ + 1; i < arg_count(); ++i) {
    const ArgValue& a = arg(i);
    if (a.has_value() && a.desc.type == DataType::kFile) {
      total += a.modeled_bytes();
    }
  }
  return total;
}

void Profile::serialize_inputs(net::Writer& w) const {
  for (int i = 0; i <= last_inout_; ++i) arg(i).serialize_value(w);
}

gc::Result<Profile> Profile::deserialize_inputs(const ProfileDesc& service,
                                                int last_in, int last_inout,
                                                int last_out, net::Reader& r) {
  if (last_in != service.last_in() || last_inout != service.last_inout() ||
      last_out != service.last_out()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "call markers do not match service " + service.path());
  }
  const auto values = static_cast<std::size_t>(last_inout + 1);
  if (!r.need(ArgValue::kMinWireBytes * values)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "call data too short for " + service.path());
  }
  Profile p(service.path(), last_in, last_inout, last_out);
  for (int i = 0; i <= last_inout; ++i) p.arg(i).deserialize_value(r);
  if (!r.ok()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "call data truncated for " + service.path());
  }
  return p;
}

void Profile::serialize_outputs(net::Writer& w) const {
  for (int i = last_in_ + 1; i < arg_count(); ++i) {
    arg(i).serialize_value(w);
  }
}

void Profile::merge_outputs(net::Reader& r) {
  for (int i = last_in_ + 1; i < arg_count(); ++i) {
    arg(i).deserialize_value(r);
  }
}

}  // namespace gc::diet
