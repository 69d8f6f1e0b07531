// Tiny command-line parser for the bench binaries and examples.
// Supports `--flag`, `--key value` and `--key=value`; arguments that are
// not options are collected as positionals.  keys() lets a tool reject
// flags it does not read.  No external dependencies on purpose.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tifl::util {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  // Numeric getters parse the whole value and throw std::invalid_argument
  // naming the flag when it is malformed, out of range or (for doubles)
  // not finite: a typo must never silently become another number.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback = false) const;

  // Every parsed option name (without the leading `--`), sorted.
  std::vector<std::string> keys() const;
  const std::vector<std::string>& positionals() const { return positionals_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positionals_;
};

}  // namespace tifl::util
