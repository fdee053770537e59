// Tiny command-line flag parser used by benches and examples.
//
// Supports `--name=value`, `--name value` and boolean `--name` /
// `--no-name`. Unknown flags are an error so typos in experiment scripts
// fail loudly instead of silently running the wrong configuration.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace con::util {

class CliFlags {
 public:
  // Parses argv; throws std::invalid_argument on malformed input. Positional
  // arguments are collected in order.
  CliFlags(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  // Numeric lookups throw std::invalid_argument naming the flag when the
  // value does not parse.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // Call after all get_* lookups: throws if any flag was provided but never
  // consumed (catches typos).
  void check_unused() const;

 private:
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> used_;
  std::vector<std::string> positional_;
};

}  // namespace con::util
