#include "common/json.hpp"

#include <cctype>

namespace spice {

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += "0123456789abcdef"[(c >> 4) & 0xF];
          out += "0123456789abcdef"[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

namespace {

/// Recursive-descent validator over a string_view; pos_ tracks the byte
/// offset for error messages. Depth-limited so hostile input cannot blow
/// the stack.
class Validator {
 public:
  explicit Validator(std::string_view text) : text_(text) {}

  bool run(std::string* error) {
    skip_ws();
    if (!value(0)) {
      if (error != nullptr) *error = error_ + " at byte " + std::to_string(pos_);
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error != nullptr) {
        *error = "trailing content at byte " + std::to_string(pos_);
      }
      return false;
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' || peek() == '\r')) {
      ++pos_;
    }
  }

  bool fail(const char* what) {
    error_ = what;
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool string() {
    if (eof() || peek() != '"') return fail("expected string");
    ++pos_;
    while (!eof()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return fail("raw control char in string");
      if (c == '\\') {
        if (eof()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"':
          case '\\':
          case '/':
          case 'b':
          case 'f':
          case 'n':
          case 'r':
          case 't':
            break;
          case 'u': {
            for (int i = 0; i < 4; ++i) {
              if (eof() || std::isxdigit(static_cast<unsigned char>(peek())) == 0) {
                return fail("bad \\u escape");
              }
              ++pos_;
            }
            break;
          }
          default:
            return fail("bad escape");
        }
      }
    }
    return fail("unterminated string");
  }

  bool number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || std::isdigit(static_cast<unsigned char>(peek())) == 0) {
      return fail("bad number");
    }
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || std::isdigit(static_cast<unsigned char>(peek())) == 0) {
        return fail("bad fraction");
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || std::isdigit(static_cast<unsigned char>(peek())) == 0) {
        return fail("bad exponent");
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    return pos_ > start;
  }

  bool value(int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (eof()) return fail("expected value");
    switch (peek()) {
      case '{':
        return object(depth);
      case '[':
        return array(depth);
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object(int depth) {
    ++pos_;  // '{'
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (eof() || peek() != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      if (!value(depth + 1)) return false;
      skip_ws();
      if (eof()) return fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool array(int depth) {
    ++pos_;  // '['
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!value(depth + 1)) return false;
      skip_ws();
      if (eof()) return fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_ = "invalid JSON";
};

}  // namespace

bool json_is_valid(std::string_view text, std::string* error) {
  return Validator(text).run(error);
}

}  // namespace spice
