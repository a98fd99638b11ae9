#include "common/json.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace acc::json {

std::int64_t Value::as_int() const {
  if (const auto* i = std::get_if<std::int64_t>(&v_)) return *i;
  if (const auto* d = std::get_if<double>(&v_)) {
    ACC_EXPECTS_MSG(*d == std::floor(*d), "JSON number is not integral");
    return static_cast<std::int64_t>(*d);
  }
  throw precondition_error("JSON value is not a number");
}

double Value::as_double() const {
  if (const auto* d = std::get_if<double>(&v_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&v_))
    return static_cast<double>(*i);
  throw precondition_error("JSON value is not a number");
}

const Value& Value::at(const std::string& key) const {
  const Object& o = as_object();
  const auto it = o.find(key);
  ACC_EXPECTS_MSG(it != o.end(), "missing JSON key '" + key + "'");
  return it->second;
}

const Value* Value::find(const std::string& key) const {
  const Object& o = as_object();
  const auto it = o.find(key);
  return it == o.end() ? nullptr : &it->second;
}

namespace {

void escape_to(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
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

void dump_to(std::ostringstream& os, const Value& v, int indent, int depth) {
  const std::string pad =
      indent > 0 ? "\n" + std::string(static_cast<std::size_t>(indent) *
                                          (depth + 1),
                                      ' ')
                 : "";
  const std::string pad_close =
      indent > 0
          ? "\n" + std::string(static_cast<std::size_t>(indent) * depth, ' ')
          : "";
  if (v.is_null()) {
    os << "null";
  } else if (v.is_bool()) {
    os << (v.as_bool() ? "true" : "false");
  } else if (v.is_int()) {
    os << v.as_int();
  } else if (v.is_double()) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v.as_double());
    os << buf;
  } else if (v.is_string()) {
    escape_to(os, v.as_string());
  } else if (v.is_array()) {
    const Array& a = v.as_array();
    if (a.empty()) {
      os << "[]";
      return;
    }
    os << '[';
    for (std::size_t i = 0; i < a.size(); ++i) {
      os << (i ? "," : "") << pad;
      dump_to(os, a[i], indent, depth + 1);
    }
    os << pad_close << ']';
  } else {
    const Object& o = v.as_object();
    if (o.empty()) {
      os << "{}";
      return;
    }
    os << '{';
    bool first = true;
    for (const auto& [k, val] : o) {
      if (!first) os << ',';
      first = false;
      os << pad;
      escape_to(os, k);
      os << (indent > 0 ? ": " : ":");
      dump_to(os, val, indent, depth + 1);
    }
    os << pad_close << '}';
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    skip_ws();
    Value v = parse_value();
    skip_ws();
    require(pos_ == text_.size(), "trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw precondition_error("JSON parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }
  void require(bool cond, const char* what) const {
    if (!cond) fail(what);
  }
  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  char take() {
    require(pos_ < text_.size(), "unexpected end of input");
    return text_[pos_++];
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }
  bool consume(char c) {
    if (peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }
  bool consume_word(std::string_view w) {
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      // Containers recurse; the cap turns hostile nesting into a positioned
      // error instead of a stack overflow.
      require(++depth_ <= kMaxDepth, "nesting deeper than 512 levels");
      Value v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') return Value(parse_string());
    if (consume_word("true")) return Value(true);
    if (consume_word("false")) return Value(false);
    if (consume_word("null")) return Value(nullptr);
    return parse_number();
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = take();
      if (c == '"') return out;
      if (c == '\\') {
        const char e = take();
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = take();
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape");
            }
            // Basic-multilingual-plane only; encode as UTF-8.
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
          default: fail("bad escape");
        }
      } else {
        out += c;
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    bool is_double = false;
    if (peek() == '.') {
      is_double = true;
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      is_double = true;
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    require(!token.empty() && token != "-", "bad number");
    if (is_double) return Value(std::strtod(token.c_str(), nullptr));
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(token.c_str(), &end, 10);
    require(end != nullptr && *end == '\0' && errno == 0, "bad integer");
    return Value(static_cast<std::int64_t>(v));
  }

  Value parse_array() {
    expect('[');
    Array a;
    skip_ws();
    if (consume(']')) return Value(std::move(a));
    for (;;) {
      a.push_back(parse_value());
      skip_ws();
      if (consume(']')) return Value(std::move(a));
      expect(',');
    }
  }

  Value parse_object() {
    expect('{');
    Object o;
    skip_ws();
    if (consume('}')) return Value(std::move(o));
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      o[std::move(key)] = parse_value();
      skip_ws();
      if (consume('}')) return Value(std::move(o));
      expect(',');
    }
  }

  static constexpr int kMaxDepth = 512;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // open arrays/objects around pos_
};

}  // namespace

std::string Value::dump() const {
  std::ostringstream os;
  dump_to(os, *this, 0, 0);
  return os.str();
}

std::string Value::pretty(int indent) const {
  std::ostringstream os;
  dump_to(os, *this, indent, 0);
  return os.str();
}

std::optional<Value> parse(std::string_view text) {
  try {
    return Parser(text).parse_document();
  } catch (const precondition_error&) {
    return std::nullopt;
  }
}

Value parse_or_throw(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace acc::json
