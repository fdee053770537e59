// Tiny command-line flag parser used by benches and examples.
//
// Supports `--name=value`, `--name value` and boolean `--name` /
// `--no-name`. Unknown flags are an error so typos in experiment scripts
// fail loudly instead of silently running the wrong configuration. Every
// error names the flag as it was typed (`--no-color`, not `--color`).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace con::util {

class CliFlags {
 public:
  // Parses argv; throws std::invalid_argument on malformed input. Positional
  // arguments are collected in order.
  CliFlags(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  // Value lookups throw std::invalid_argument naming the flag when it was
  // given bare (`--trace` followed by another flag or nothing) or when the
  // value does not parse in full (`60x` is not an integer).
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;
  // Comma-separated list (`--densities 1.0,0.5`) of T = std::string, int
  // or double; every numeric element must parse in full.
  template <typename T>
  std::vector<T> get_list(const std::string& name,
                          const std::vector<T>& fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // Call after all get_* lookups: throws if any flag was provided but never
  // consumed (catches typos).
  void check_unused() const;

 private:
  struct Flag {
    std::string value;
    std::string spelling;  // as typed: "--no-color" for name "color"
    bool bare = false;     // no value given: value is "true" or "false"
  };
  // Marks `name` used; nullptr when absent.
  const Flag* find(const std::string& name) const;
  // The value of a flag that needs one; throws when it was given bare.
  static const std::string& value_of(const Flag& flag);

  std::map<std::string, Flag> flags_;
  mutable std::map<std::string, bool> used_;
  std::vector<std::string> positional_;
};

}  // namespace con::util
