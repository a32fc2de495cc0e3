#ifndef LAMP_UTIL_PARSE_H
#define LAMP_UTIL_PARSE_H

/// \file parse.h
/// Checked parsing of numeric command-line flags. A value must be the
/// whole text after '=' and fit the field's type: "abc", "12x", "" and
/// out-of-range values are rejected, where std::stoi throws (an uncaught
/// exception aborts the tool) and std::atoi silently reads 0.

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>

namespace lamp::util {

/// Parses the value of a `--name=value` argument into `out`, an integer
/// or floating-point field, with std::from_chars. On a bad value, leaves
/// `out` unchanged, sets `err` to "bad value '<value>' for --name" and
/// returns false.
template <typename T>
bool parseFlag(std::string_view arg, T& out, std::string& err) {
  const std::size_t eq = arg.find('=');
  const std::string_view value =
      arg.substr(eq == std::string_view::npos ? arg.size() : eq + 1);
  T parsed{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (ec == std::errc() && ptr == end) {
    out = parsed;
    return true;
  }
  err = "bad value '" + std::string(value) + "' for " +
        std::string(arg.substr(0, eq));
  return false;
}

}  // namespace lamp::util

#endif  // LAMP_UTIL_PARSE_H
