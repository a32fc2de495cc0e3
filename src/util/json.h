#ifndef LAMP_UTIL_JSON_H
#define LAMP_UTIL_JSON_H

/// \file json.h
/// Minimal JSON document model for the service wire protocol and the
/// machine-readable CLI/bench outputs. Self-contained (the toolchain
/// image has no JSON library) and deliberately small: ordered objects,
/// no comments, UTF-8 pass-through, numbers kept as their literal text
/// so that doubles round-trip bit-exactly (writing uses shortest
/// round-trip formatting via std::to_chars).

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lamp::util {

/// Shortest round-trip decimal text of `v` (std::to_chars), the digits
/// Json::number writes; cache keys, cache file names and metric samples
/// use it too. Non-finite values come out as "inf"/"nan" here; only
/// Json::number clamps them.
std::string numberText(double v);

class Json {
 public:
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

  Json() = default;  ///< null

  static Json boolean(bool b);
  static Json number(double v);          ///< shortest round-trip literal
  static Json integer(std::int64_t v);
  static Json string(std::string s);
  static Json array();
  static Json object();

  Kind kind() const { return kind_; }
  bool isNull() const { return kind_ == Kind::Null; }
  bool isObject() const { return kind_ == Kind::Object; }
  bool isArray() const { return kind_ == Kind::Array; }
  bool isString() const { return kind_ == Kind::String; }
  bool isNumber() const { return kind_ == Kind::Number; }
  bool isBool() const { return kind_ == Kind::Bool; }

  bool asBool(bool fallback = false) const;
  double asDouble(double fallback = 0.0) const;
  /// The number, truncated toward zero and saturated to int64's range.
  std::int64_t asInt(std::int64_t fallback = 0) const;
  /// String payload ("" for non-strings).
  const std::string& asString() const;

  // Arrays.
  std::size_t size() const { return items_.size(); }
  const Json& at(std::size_t i) const { return items_[i]; }
  Json& push(Json v);  ///< returns the stored element

  // Objects (insertion-ordered, keys unique).
  const Json* find(std::string_view key) const;  ///< null if absent
  Json& set(std::string key, Json value);        ///< insert or replace
  const std::vector<std::pair<std::string, Json>>& members() const {
    return fields_;
  }

  /// Compact single-line rendering (the wire format).
  void write(std::ostream& os) const;
  std::string dump() const;

  /// Deepest array/object nesting parse() accepts. The parser recurses
  /// once per level, so deeper input is an error, not a stack overflow;
  /// no document lamp writes comes close.
  static constexpr int kMaxDepth = 512;

  /// Strict parse of one JSON document (trailing junk is an error).
  static std::optional<Json> parse(std::string_view text,
                                   std::string* error = nullptr);

 private:
  friend struct JsonParser;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  std::string scalar_;  ///< number literal or string payload
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> fields_;
};

}  // namespace lamp::util

#endif  // LAMP_UTIL_JSON_H
