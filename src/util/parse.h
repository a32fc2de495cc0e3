#ifndef LAMP_UTIL_PARSE_H
#define LAMP_UTIL_PARSE_H

/// \file parse.h
/// The command-line parser every lamp tool shares. A numeric value must
/// be the whole text after '=' and fit the field's type: "abc", "12x",
/// "" and out-of-range values are rejected, where std::stoi throws (an
/// uncaught exception aborts the tool) and std::atoi silently reads 0.

#include <charconv>
#include <functional>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

namespace lamp::util {

/// Parses all of `value` into the integer or floating-point `out` with
/// std::from_chars; on failure leaves `out` unchanged and returns false.
template <typename T>
bool parseValue(std::string_view value, T& out) {
  T parsed{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (ec != std::errc() || ptr != end) return false;
  out = parsed;
  return true;
}

/// How a flag takes its value.
enum class FlagValue {
  None,      ///< --name
  Required,  ///< --name=VALUE
  Path,      ///< --name=VALUE, VALUE not empty
  Optional,  ///< --name or --name=VALUE ("" for the bare flag)
  Spaced,    ///< --name VALUE or --name=VALUE
};

/// A tool's `--name` flags and its one positional input. Each tool
/// registers what every flag sets, then calls parse(): the first bad
/// argument ends it with a usage message. A repeated flag applies again.
class ArgParser {
 public:
  /// Applies one occurrence. Returns false on a bad value, with `err`
  /// set or left empty for "bad value '<value>' for --name".
  using Handler =
      std::function<bool(std::string_view value, std::string& err)>;

  void add(std::string_view name, FlagValue how, Handler apply) {
    flags_.push_back({std::string(name), how, std::move(apply)});
  }
  /// --name sets `out` to `to`.
  void flag(std::string_view name, bool& out, bool to = true) {
    add(name, FlagValue::None, [&out, to](std::string_view, std::string&) {
      out = to;
      return true;
    });
  }
  /// --name=N through parseValue.
  template <typename T>
  void number(std::string_view name, T& out) {
    add(name, FlagValue::Required, [&out](std::string_view v, std::string&) {
      return parseValue(v, out);
    });
  }
  /// The value as text into a std::string or std::optional<std::string>,
  /// or appended to a std::vector<std::string>.
  template <typename S>
  void text(std::string_view name, S& out,
            FlagValue how = FlagValue::Required) {
    add(name, how, [&out](std::string_view v, std::string&) {
      if constexpr (requires { out.emplace_back(v); }) {
        out.emplace_back(v);
      } else {
        out = std::string(v);
      }
      return true;
    });
  }
  /// The one positional argument; without it any is an unknown option.
  void positional(std::string& out) { positional_ = &out; }

  bool parse(int argc, const char* const* argv, std::string& err) const;

 private:
  struct Flag {
    std::string name;
    FlagValue how;
    Handler apply;
  };
  std::vector<Flag> flags_;
  std::string* positional_ = nullptr;
};

}  // namespace lamp::util

#endif  // LAMP_UTIL_PARSE_H
