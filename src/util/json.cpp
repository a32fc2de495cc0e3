#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <sstream>

namespace lamp::util {

Json Json::boolean(bool b) {
  Json j;
  j.kind_ = Kind::Bool;
  j.bool_ = b;
  return j;
}

std::string numberText(double v) {
  char buf[40];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

Json Json::number(double v) {
  Json j;
  j.kind_ = Kind::Number;
  j.scalar_ = numberText(v);
  // to_chars emits "inf"/"nan" for non-finite values, which JSON cannot
  // carry; clamp to null-ish zero rather than emitting invalid output.
  if (j.scalar_.find_first_not_of("0123456789+-.eE") != std::string::npos) {
    j.scalar_ = "0";
  }
  return j;
}

Json Json::integer(std::int64_t v) {
  Json j;
  j.kind_ = Kind::Number;
  j.scalar_ = std::to_string(v);
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.kind_ = Kind::String;
  j.scalar_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::Array;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::Object;
  return j;
}

bool Json::asBool(bool fallback) const {
  return kind_ == Kind::Bool ? bool_ : fallback;
}

double Json::asDouble(double fallback) const {
  if (kind_ != Kind::Number) return fallback;
  return std::strtod(scalar_.c_str(), nullptr);
}

std::int64_t Json::asInt(std::int64_t fallback) const {
  if (kind_ != Kind::Number) return fallback;
  if (scalar_.find_first_of(".eE") != std::string::npos) {
    // Saturate: casting a double outside int64's range is undefined.
    constexpr double kLimit = 0x1p63;
    const double v = asDouble(static_cast<double>(fallback));
    if (v >= kLimit) return std::numeric_limits<std::int64_t>::max();
    if (v <= -kLimit) return std::numeric_limits<std::int64_t>::min();
    return static_cast<std::int64_t>(v);
  }
  return std::strtoll(scalar_.c_str(), nullptr, 10);  // saturates
}

const std::string& Json::asString() const {
  static const std::string kEmpty;
  return kind_ == Kind::String ? scalar_ : kEmpty;
}

Json& Json::push(Json v) {
  items_.push_back(std::move(v));
  return items_.back();
}

const Json* Json::find(std::string_view key) const {
  for (const auto& [k, v] : fields_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json& Json::set(std::string key, Json value) {
  for (auto& [k, v] : fields_) {
    if (k == key) {
      v = std::move(value);
      return v;
    }
  }
  fields_.emplace_back(std::move(key), std::move(value));
  return fields_.back().second;
}

namespace {

void writeEscaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

void Json::write(std::ostream& os) const {
  switch (kind_) {
    case Kind::Null: os << "null"; break;
    case Kind::Bool: os << (bool_ ? "true" : "false"); break;
    case Kind::Number: os << scalar_; break;
    case Kind::String: writeEscaped(os, scalar_); break;
    case Kind::Array:
      os << '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i) os << ',';
        items_[i].write(os);
      }
      os << ']';
      break;
    case Kind::Object:
      os << '{';
      for (std::size_t i = 0; i < fields_.size(); ++i) {
        if (i) os << ',';
        writeEscaped(os, fields_[i].first);
        os << ':';
        fields_[i].second.write(os);
      }
      os << '}';
      break;
  }
}

std::string Json::dump() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

/// Recursive-descent parser behind Json::parse (a friend of Json).
struct JsonParser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;
  int depth = 0;  ///< open arrays/objects around pos

  bool fail(const std::string& msg) {
    if (error.empty()) {
      error = msg + " at offset " + std::to_string(pos);
    }
    return false;
  }

  void skipWs() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  bool consume(char c) {
    skipWs();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }

  bool parseString(std::string& out) {
    skipWs();
    if (pos >= text.size() || text[pos] != '"') return fail("expected string");
    ++pos;
    out.clear();
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) return fail("dangling escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos + 4 > text.size()) return fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad \\u escape");
            }
          }
          // BMP-only UTF-8 encoding (surrogate pairs unsupported; the
          // protocol never emits them).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parseValue(Json& out) {
    skipWs();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{' || c == '[') {
      if (depth == Json::kMaxDepth) {
        return fail("nesting deeper than " + std::to_string(Json::kMaxDepth));
      }
      ++depth;
      const bool ok = c == '{' ? parseObject(out) : parseArray(out);
      --depth;
      return ok;
    }
    if (c == '"') {
      std::string s;
      if (!parseString(s)) return false;
      out = Json::string(std::move(s));
      return true;
    }
    if (text.compare(pos, 4, "true") == 0) {
      pos += 4;
      out = Json::boolean(true);
      return true;
    }
    if (text.compare(pos, 5, "false") == 0) {
      pos += 5;
      out = Json::boolean(false);
      return true;
    }
    if (text.compare(pos, 4, "null") == 0) {
      pos += 4;
      out = Json();
      return true;
    }
    return parseNumber(out);
  }

  bool parseNumber(Json& out) {
    const std::size_t start = pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    bool digits = false;
    bool dot = false, exp = false;
    while (pos < text.size()) {
      const char c = text[pos];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        digits = true;
        ++pos;
      } else if (c == '.' && !dot && !exp) {
        dot = true;
        ++pos;
      } else if ((c == 'e' || c == 'E') && digits && !exp) {
        exp = true;
        ++pos;
        if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
      } else {
        break;
      }
    }
    if (!digits) return fail("expected value");
    // Integers keep their literal; non-integers renormalize through
    // strtod + shortest-round-trip formatting, which preserves the
    // double value exactly (what the cache's bit-identity relies on).
    const std::string lit(text.substr(start, pos - start));
    if (lit.find_first_of(".eE") == std::string::npos) {
      out = Json::integer(std::strtoll(lit.c_str(), nullptr, 10));
    } else {
      const double v = std::strtod(lit.c_str(), nullptr);
      out = Json::number(v);
      // A literal beyond double's range keeps its text, so asDouble()
      // reads the infinity and readers reject it, instead of the 0
      // Json::number stores for a non-finite value.
      if (!std::isfinite(v)) out.scalar_ = lit;
    }
    return true;
  }

  bool parseArray(Json& out) {
    if (!consume('[')) return false;
    out = Json::array();
    skipWs();
    if (pos < text.size() && text[pos] == ']') {
      ++pos;
      return true;
    }
    while (true) {
      Json v;
      if (!parseValue(v)) return false;
      out.push(std::move(v));
      skipWs();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      return consume(']');
    }
  }

  bool parseObject(Json& out) {
    if (!consume('{')) return false;
    out = Json::object();
    skipWs();
    if (pos < text.size() && text[pos] == '}') {
      ++pos;
      return true;
    }
    while (true) {
      std::string key;
      if (!parseString(key)) return false;
      if (!consume(':')) return false;
      Json v;
      if (!parseValue(v)) return false;
      out.set(std::move(key), std::move(v));
      skipWs();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      return consume('}');
    }
  }
};

std::optional<Json> Json::parse(std::string_view text, std::string* error) {
  JsonParser p{text, 0, {}};
  Json out;
  if (!p.parseValue(out)) {
    if (error) *error = p.error;
    return std::nullopt;
  }
  p.skipWs();
  if (p.pos != text.size()) {
    if (error) *error = "trailing characters at offset " + std::to_string(p.pos);
    return std::nullopt;
  }
  return out;
}

}  // namespace lamp::util
