#include "util/cli.h"

#include <stdexcept>

namespace con::util {

CliFlags::CliFlags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    if (arg.empty()) throw std::invalid_argument("bare '--' is not a flag");
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--no-name` always negates; otherwise `--name value` if the next
    // token is not itself a flag, else a boolean `--name`.
    if (arg.rfind("no-", 0) == 0) {
      flags_[arg.substr(3)] = "false";
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

bool CliFlags::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string CliFlags::get_string(const std::string& name,
                                 const std::string& fallback) const {
  used_[name] = true;
  auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t CliFlags::get_int(const std::string& name,
                               std::int64_t fallback) const {
  used_[name] = true;
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  try {
    return std::stoll(it->second);
  } catch (const std::logic_error&) {
    throw std::invalid_argument("flag --" + name +
                                " is not an integer: " + it->second);
  }
}

double CliFlags::get_double(const std::string& name, double fallback) const {
  used_[name] = true;
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  try {
    return std::stod(it->second);
  } catch (const std::logic_error&) {
    throw std::invalid_argument("flag --" + name +
                                " is not a number: " + it->second);
  }
}

bool CliFlags::get_bool(const std::string& name, bool fallback) const {
  used_[name] = true;
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw std::invalid_argument("flag --" + name + " is not a boolean: " + v);
}

void CliFlags::check_unused() const {
  for (const auto& [name, value] : flags_) {
    (void)value;
    if (!used_.count(name)) {
      throw std::invalid_argument("unknown flag --" + name);
    }
  }
}

}  // namespace con::util
