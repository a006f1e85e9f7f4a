#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace p3gm {
namespace obs {
namespace json {

void AppendNumber(std::string* out, double v) {
  // 32 bytes always fit: the longest %.17g text is kMaxNumberChars (24)
  // characters, -2.2250738585072014e-308. Precision-17 general format
  // is specified as printf's %.17g; shortest round-trip would differ.
  char buf[32];
  static_assert(sizeof buf >= kMaxNumberChars);
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof buf, v, std::chars_format::general, 17);
  out->append(buf, r.ptr);
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

const Value* Value::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

double Value::NumberOr(const std::string& key, double fallback) const {
  const Value* v = Find(key);
  return v != nullptr && v->is_number() ? v->number_value : fallback;
}

std::string Value::StringOr(const std::string& key,
                            const std::string& fallback) const {
  const Value* v = Find(key);
  return v != nullptr && v->is_string() ? v->string_value : fallback;
}

bool Value::BoolOr(const std::string& key, bool fallback) const {
  const Value* v = Find(key);
  return v != nullptr && v->kind == Kind::kBool ? v->bool_value : fallback;
}

namespace {

// Recursive-descent parser over the raw text. Depth-limited so a
// corrupted file cannot blow the stack.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  bool Run(Value* out, std::string* error) {
    bool ok = ParseValue(out, 0);
    if (ok) {
      SkipWhitespace();
      if (pos_ != text_.size()) {
        ok = false;
        error_ = "trailing characters";
      }
    }
    if (!ok && error != nullptr) {
      char buf[32];
      std::snprintf(buf, sizeof buf, " at offset %zu", pos_);
      *error = error_ + buf;
    }
    return ok;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Fail(const char* what) {
    error_ = what;
    return false;
  }

  bool Consume(char c, const char* what) {
    if (pos_ >= text_.size() || text_[pos_] != c) return Fail(what);
    ++pos_;
    return true;
  }

  bool ConsumeLiteral(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return Fail("bad literal");
    pos_ += n;
    return true;
  }

  void AppendUtf8(std::string* out, unsigned cp) {
    if (cp < 0x80) {
      *out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      *out += static_cast<char>(0xC0 | (cp >> 6));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      *out += static_cast<char>(0xE0 | (cp >> 12));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (cp >> 18));
      *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool ParseHex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return Fail("short \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Fail("bad \\u escape");
      }
    }
    pos_ += 4;
    *out = v;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"', "expected string")) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Fail("dangling escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'n': *out += '\n'; break;
          case 't': *out += '\t'; break;
          case 'r': *out += '\r'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'u': {
            unsigned cp = 0;
            if (!ParseHex4(&cp)) return false;
            if (cp >= 0xD800 && cp <= 0xDBFF &&
                text_.compare(pos_, 2, "\\u") == 0) {
              pos_ += 2;
              unsigned lo = 0;
              if (!ParseHex4(&lo)) return false;
              if (lo >= 0xDC00 && lo <= 0xDFFF) {
                cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
              } else {
                return Fail("bad surrogate pair");
              }
            }
            AppendUtf8(out, cp);
            break;
          }
          default:
            return Fail("bad escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("control character in string");
      } else {
        *out += c;
      }
    }
    return Fail("unterminated string");
  }

  bool ParseValue(Value* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = Value::Kind::kObject;
      SkipWhitespace();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        SkipWhitespace();
        std::string key;
        if (!ParseString(&key)) return false;
        SkipWhitespace();
        if (!Consume(':', "expected ':'")) return false;
        Value member;
        if (!ParseValue(&member, depth + 1)) return false;
        out->members.emplace_back(std::move(key), std::move(member));
        SkipWhitespace();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        return Consume('}', "expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = Value::Kind::kArray;
      SkipWhitespace();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        Value item;
        if (!ParseValue(&item, depth + 1)) return false;
        out->items.push_back(std::move(item));
        SkipWhitespace();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        return Consume(']', "expected ',' or ']'");
      }
    }
    if (c == '"') {
      out->kind = Value::Kind::kString;
      return ParseString(&out->string_value);
    }
    if (c == 't') {
      out->kind = Value::Kind::kBool;
      out->bool_value = true;
      return ConsumeLiteral("true");
    }
    if (c == 'f') {
      out->kind = Value::Kind::kBool;
      out->bool_value = false;
      return ConsumeLiteral("false");
    }
    if (c == 'n') {
      out->kind = Value::Kind::kNull;
      return ConsumeLiteral("null");
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      const char* start = text_.c_str() + pos_;
      char* end = nullptr;
      out->kind = Value::Kind::kNumber;
      out->number_value = std::strtod(start, &end);
      if (end == start) return Fail("bad number");
      pos_ += static_cast<std::size_t>(end - start);
      return true;
    }
    return Fail("unexpected character");
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool Parse(const std::string& text, Value* out, std::string* error) {
  *out = Value();
  return Parser(text).Run(out, error);
}

}  // namespace json
}  // namespace obs
}  // namespace p3gm
