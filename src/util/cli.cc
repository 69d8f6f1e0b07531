#include "util/cli.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace tifl::util {

namespace {

bool looks_like_value(const std::string& s) {
  if (s.empty()) return false;
  if (s[0] != '-') return true;
  // "-3" / "-0.5" are values, "--flag" / "-f" are options.
  return s.size() > 1 && (std::isdigit(static_cast<unsigned char>(s[1])) ||
                          s[1] == '.');
}

// Parses the whole of `text` as a T, or throws naming the flag: trailing
// junk ("3x"), an empty value and out-of-range values are all errors.
template <typename T>
T parse_number(const std::string& key, const std::string& text,
               const char* expected) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (error == std::errc::result_out_of_range) {
    throw std::invalid_argument("--" + key + " is out of range: '" + text +
                                "'");
  }
  if (error != std::errc() || end != last) {
    throw std::invalid_argument("--" + key + " expects " + expected +
                                ", got '" + text + "'");
  }
  return value;
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positionals_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      options_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    if (i + 1 < argc && looks_like_value(argv[i + 1])) {
      options_[arg] = argv[++i];
    } else {
      options_[arg] = "true";
    }
  }
}

std::vector<std::string> Cli::keys() const {
  std::vector<std::string> out;
  out.reserve(options_.size());
  for (const auto& [key, value] : options_) out.push_back(key);
  return out;
}

bool Cli::has(const std::string& key) const {
  return options_.count(key) != 0;
}

std::string Cli::get(const std::string& key,
                     const std::string& fallback) const {
  const auto it = options_.find(key);
  return it == options_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& key,
                          std::int64_t fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  return parse_number<std::int64_t>(key, it->second, "an integer");
}

double Cli::get_double(const std::string& key, double fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  const double value = parse_number<double>(key, it->second, "a number");
  if (!std::isfinite(value)) {
    throw std::invalid_argument("--" + key + " expects a finite number, got '" +
                                it->second + "'");
  }
  return value;
}

bool Cli::get_bool(const std::string& key, bool fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  return it->second != "false" && it->second != "0" && it->second != "no";
}

}  // namespace tifl::util
