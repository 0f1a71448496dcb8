// Minimal command-line flag parser for the examples and benches.
// Supports --key value and --key=value; unknown flags are ignored.
#pragma once

#include <map>
#include <string>

namespace gc {

class CliArgs {
 public:
  CliArgs(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                std::string fallback) const;
  [[nodiscard]] long get_int(const std::string& key, long fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] std::string program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
};

}  // namespace gc
