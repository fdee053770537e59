#include "util/cli.h"

#include <charconv>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace con::util {

namespace {

// Parses the whole of `text` as a T: "60x", "" and out-of-range values
// throw naming the flag.
template <typename T>
T parse_number(const std::string& spelling, const std::string& text) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument(
        "flag " + spelling + ": '" + text + "' is not " +
        (std::is_integral_v<T> ? "an integer" : "a number"));
  }
  return v;
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t comma; (comma = s.find(',', start)) != std::string::npos;
       start = comma + 1) {
    out.push_back(s.substr(start, comma - start));
  }
  out.push_back(s.substr(start));
  return out;
}

}  // namespace

CliFlags::CliFlags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    const std::string spelling = arg;
    arg = arg.substr(2);
    if (arg.empty()) throw std::invalid_argument("bare '--' is not a flag");
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = {arg.substr(eq + 1),
                                   spelling.substr(0, eq + 2), false};
      continue;
    }
    // `--no-name` always negates; otherwise `--name value` if the next
    // token is not itself a flag, else a boolean `--name`.
    if (arg.rfind("no-", 0) == 0) {
      flags_[arg.substr(3)] = {"false", spelling, true};
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = {argv[++i], spelling, false};
    } else {
      flags_[arg] = {"true", spelling, true};
    }
  }
}

bool CliFlags::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

const CliFlags::Flag* CliFlags::find(const std::string& name) const {
  used_[name] = true;
  auto it = flags_.find(name);
  return it == flags_.end() ? nullptr : &it->second;
}

const std::string& CliFlags::value_of(const Flag& flag) {
  if (flag.bare) {
    throw std::invalid_argument("flag " + flag.spelling + " expects a value");
  }
  return flag.value;
}

std::string CliFlags::get_string(const std::string& name,
                                 const std::string& fallback) const {
  const Flag* f = find(name);
  return f == nullptr ? fallback : value_of(*f);
}

std::int64_t CliFlags::get_int(const std::string& name,
                               std::int64_t fallback) const {
  const Flag* f = find(name);
  if (f == nullptr) return fallback;
  return parse_number<std::int64_t>(f->spelling, value_of(*f));
}

double CliFlags::get_double(const std::string& name, double fallback) const {
  const Flag* f = find(name);
  if (f == nullptr) return fallback;
  return parse_number<double>(f->spelling, value_of(*f));
}

bool CliFlags::get_bool(const std::string& name, bool fallback) const {
  const Flag* f = find(name);
  if (f == nullptr) return fallback;
  const std::string& v = f->value;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw std::invalid_argument("flag " + f->spelling + ": '" + v +
                              "' is not a boolean");
}

template <typename T>
std::vector<T> CliFlags::get_list(const std::string& name,
                                  const std::vector<T>& fallback) const {
  const Flag* f = find(name);
  if (f == nullptr) return fallback;
  std::vector<T> out;
  for (std::string& item : split_commas(value_of(*f))) {
    if constexpr (std::is_same_v<T, std::string>) {
      out.push_back(std::move(item));
    } else {
      out.push_back(parse_number<T>(f->spelling, item));
    }
  }
  return out;
}

template std::vector<std::string> CliFlags::get_list(
    const std::string&, const std::vector<std::string>&) const;
template std::vector<int> CliFlags::get_list(const std::string&,
                                             const std::vector<int>&) const;
template std::vector<double> CliFlags::get_list(
    const std::string&, const std::vector<double>&) const;

void CliFlags::check_unused() const {
  for (const auto& [name, flag] : flags_) {
    if (!used_.count(name)) {
      throw std::invalid_argument("unknown flag " + flag.spelling);
    }
  }
}

}  // namespace con::util
