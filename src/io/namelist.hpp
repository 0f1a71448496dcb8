// Fortran namelist files (RAMSES's .nml run-parameter format).
//
// The ramsesZoom2 profile's first IN argument is "a file containing
// parameters for RAMSES" — a namelist. Supported subset:
//
//   &RUN_PARAMS
//     cosmo=.true.
//     levelmin=7          ! comment
//     boxlen=100.0
//     zoom_centre=0.5,0.5,0.5
//   /
//
// Groups are case-insensitive; values keep their text form with typed
// accessors (bool .true./.false., ints, doubles, comma arrays, quoted
// strings).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace gc::io {

class NamelistGroup {
 public:
  [[nodiscard]] std::optional<std::string> raw(const std::string& key) const;
  [[nodiscard]] gc::Result<bool> get_bool(const std::string& key) const;
  [[nodiscard]] gc::Result<long> get_int(const std::string& key) const;
  [[nodiscard]] gc::Result<double> get_double(const std::string& key) const;
  [[nodiscard]] gc::Result<std::string> get_string(const std::string& key) const;
  [[nodiscard]] gc::Result<std::vector<double>> get_doubles(
      const std::string& key) const;

  void set(const std::string& key, const std::string& value);
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] const std::map<std::string, std::string>& values() const {
    return values_;
  }

 private:
  std::map<std::string, std::string> values_;  // lower-cased keys
};

class Namelist {
 public:
  static gc::Result<Namelist> load(const std::string& path);
  static gc::Result<Namelist> parse(std::string_view text);

  [[nodiscard]] const NamelistGroup* group(const std::string& name) const;
  [[nodiscard]] NamelistGroup& group_or_create(const std::string& name);

  /// Writes back in namelist syntax.
  [[nodiscard]] std::string to_string() const;
  gc::Status save(const std::string& path) const;

 private:
  std::map<std::string, NamelistGroup> groups_;  // lower-cased names
};

}  // namespace gc::io
