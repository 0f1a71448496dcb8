#include "io/namelist.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/strings.hpp"

namespace gc::io {

namespace {

std::string strip_comment(std::string_view line) {
  // '!' starts a comment unless inside a quoted string.
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '\'' || line[i] == '"') quoted = !quoted;
    if (line[i] == '!' && !quoted) return std::string(line.substr(0, i));
  }
  return std::string(line);
}

}  // namespace

std::optional<std::string> NamelistGroup::raw(const std::string& key) const {
  auto it = values_.find(to_lower(key));
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

gc::Result<bool> NamelistGroup::get_bool(const std::string& key) const {
  auto v = raw(key);
  if (!v) return make_error(ErrorCode::kNotFound, "missing key: " + key);
  const std::string s = to_lower(*v);
  if (s == ".true." || s == "t" || s == "true") return true;
  if (s == ".false." || s == "f" || s == "false") return false;
  return make_error(ErrorCode::kInvalidArgument, "not a logical: " + *v);
}

gc::Result<long> NamelistGroup::get_int(const std::string& key) const {
  auto v = raw(key);
  if (!v) return make_error(ErrorCode::kNotFound, "missing key: " + key);
  char* end = nullptr;
  const long value = std::strtol(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0') {
    return make_error(ErrorCode::kInvalidArgument, "not an integer: " + *v);
  }
  return value;
}

gc::Result<double> NamelistGroup::get_double(const std::string& key) const {
  auto v = raw(key);
  if (!v) return make_error(ErrorCode::kNotFound, "missing key: " + key);
  // Fortran doubles may use 'd' exponents: 1.5d2.
  std::string s = *v;
  for (char& c : s) {
    if (c == 'd' || c == 'D') c = 'e';
  }
  char* end = nullptr;
  const double value = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    return make_error(ErrorCode::kInvalidArgument, "not a real: " + *v);
  }
  return value;
}

gc::Result<std::string> NamelistGroup::get_string(
    const std::string& key) const {
  auto v = raw(key);
  if (!v) return make_error(ErrorCode::kNotFound, "missing key: " + key);
  std::string s = *v;
  if (s.size() >= 2 && ((s.front() == '\'' && s.back() == '\'') ||
                        (s.front() == '"' && s.back() == '"'))) {
    s = s.substr(1, s.size() - 2);
  }
  return s;
}

gc::Result<std::vector<double>> NamelistGroup::get_doubles(
    const std::string& key) const {
  auto v = raw(key);
  if (!v) return make_error(ErrorCode::kNotFound, "missing key: " + key);
  std::vector<double> out;
  for (const auto& part : split(*v, ',')) {
    std::string s(trim(part));
    for (char& c : s) {
      if (c == 'd' || c == 'D') c = 'e';
    }
    char* end = nullptr;
    const double value = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0') {
      return make_error(ErrorCode::kInvalidArgument,
                        "not a real list: " + *v);
    }
    out.push_back(value);
  }
  return out;
}

void NamelistGroup::set(const std::string& key, const std::string& value) {
  values_[to_lower(key)] = value;
}

gc::Result<Namelist> Namelist::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return make_error(ErrorCode::kIoError, "cannot open namelist: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

gc::Result<Namelist> Namelist::parse(std::string_view text) {
  Namelist nml;
  NamelistGroup* current = nullptr;
  std::string current_name;
  for (const auto& raw_line : split(text, '\n')) {
    std::string line{trim(strip_comment(raw_line))};
    if (line.empty()) continue;
    if (line[0] == '&') {
      current_name = to_lower(trim(std::string_view(line).substr(1)));
      if (current_name.empty()) {
        return make_error(ErrorCode::kInvalidArgument, "unnamed group");
      }
      current = &nml.group_or_create(current_name);
      continue;
    }
    if (line == "/") {
      current = nullptr;
      continue;
    }
    if (current == nullptr) {
      return make_error(ErrorCode::kInvalidArgument,
                        "assignment outside a group: " + line);
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return make_error(ErrorCode::kInvalidArgument,
                        "expected key=value: " + line);
    }
    const std::string key{trim(std::string_view(line).substr(0, eq))};
    const std::string value{trim(std::string_view(line).substr(eq + 1))};
    current->set(key, value);
  }
  if (current != nullptr) {
    return make_error(ErrorCode::kInvalidArgument,
                      "unterminated group: &" + current_name);
  }
  return nml;
}

const NamelistGroup* Namelist::group(const std::string& name) const {
  auto it = groups_.find(to_lower(name));
  return it != groups_.end() ? &it->second : nullptr;
}

NamelistGroup& Namelist::group_or_create(const std::string& name) {
  return groups_[to_lower(name)];
}

std::string Namelist::to_string() const {
  std::string out;
  for (const auto& [name, group] : groups_) {
    out += "&" + name + "\n";
    for (const auto& [key, value] : group.values()) {
      out += "  " + key + "=" + value + "\n";
    }
    out += "/\n";
  }
  return out;
}

gc::Status Namelist::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return make_error(ErrorCode::kIoError, "cannot write: " + path);
  out << to_string();
  if (!out) return make_error(ErrorCode::kIoError, "short write: " + path);
  return Status::ok();
}

}  // namespace gc::io
