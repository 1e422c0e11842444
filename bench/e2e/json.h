// Minimal JSON reader for bench_e2e's self-test: it reads the metric lists
// out of BENCHMARK.json and checks that an emitted trace file parses.
// Strict RFC 8259 grammar; throws std::runtime_error on malformed input.
#pragma once

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace e2e::json {

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  // Member `key` of an object, or null when absent (or not an object).
  const Value* find(std::string_view key) const {
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
};

namespace detail {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Value document() {
    Value v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t'))
      ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  void literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) fail("bad literal");
    pos_ += word.size();
  }

  Value value() {
    if (++depth_ > 256) fail("nesting too deep");
    Value v;
    switch (peek()) {
      case '{': v = object(); break;
      case '[': v = array(); break;
      case '"':
        v.kind = Value::Kind::kString;
        v.string = string();
        break;
      case 't':
        literal("true");
        v.kind = Value::Kind::kBool;
        v.boolean = true;
        break;
      case 'f':
        literal("false");
        v.kind = Value::Kind::kBool;
        break;
      case 'n': literal("null"); break;
      default: v = number();
    }
    --depth_;
    return v;
  }

  Value object() {
    Value v;
    v.kind = Value::Kind::kObject;
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      if (peek() != '"') fail("expected a member name");
      std::string key = string();
      expect(':');
      v.object.emplace_back(std::move(key), value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value array() {
    Value v;
    v.kind = Value::Kind::kArray;
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  static void put_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  unsigned hex4() {
    if (pos_ + 4 > s_.size()) fail("short \\u escape");
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = s_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9') cp |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') cp |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') cp |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad \\u escape");
    }
    return cp;
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("control character");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      switch (s_[pos_++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = hex4();
          if (cp >= 0xD800 && cp < 0xDC00) {
            if (s_.substr(pos_, 2) != "\\u") fail("lone surrogate");
            pos_ += 2;
            const unsigned lo = hex4();
            if (lo < 0xDC00 || lo >= 0xE000) fail("bad surrogate pair");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp < 0xE000) {
            fail("lone surrogate");
          }
          put_utf8(out, cp);
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  Value number() {
    const std::size_t start = pos_;
    const auto digits = [&] {
      const std::size_t from = pos_;
      while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
      if (pos_ == from) fail("expected a digit");
    };
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    if (pos_ < s_.size() && s_[pos_] == '0') ++pos_;
    else digits();
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      digits();
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      digits();
    }
    Value v;
    v.kind = Value::Kind::kNumber;
    v.number = std::strtod(std::string(s_.substr(start, pos_ - start)).c_str(),
                           nullptr);
    return v;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace detail

inline Value parse(std::string_view text) {
  return detail::Parser(text).document();
}

}  // namespace e2e::json
