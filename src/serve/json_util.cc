#include "serve/json_util.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace kpef::serve {

namespace {

/// Cursor over the input with the shared depth budget.
struct Parser {
  std::string_view text;
  size_t pos = 0;
  size_t max_depth;
  std::string* error;

  bool Fail(const char* reason) {
    if (error->empty()) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s at offset %zu", reason, pos);
      *error = buf;
    }
    return false;
  }

  bool AtEnd() const { return pos >= text.size(); }
  char Peek() const { return text[pos]; }

  void SkipWhitespace() {
    while (!AtEnd()) {
      const char c = text[pos];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos;
      } else {
        break;
      }
    }
  }

  bool Literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return Fail("invalid literal");
    pos += word.size();
    return true;
  }

  bool ParseHex4(uint32_t* out) {
    if (pos + 4 > text.size()) return Fail("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text[pos + static_cast<size_t>(i)];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Fail("invalid \\u escape");
      }
    }
    pos += 4;
    *out = value;
    return true;
  }

  bool ParseString(std::string* out) {
    ++pos;  // opening quote
    out->clear();
    while (true) {
      if (AtEnd()) return Fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text[pos]);
      if (c == '"') {
        ++pos;
        return true;
      }
      if (c == '\\') {
        ++pos;
        if (AtEnd()) return Fail("unterminated escape");
        const char e = text[pos++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            uint32_t cp = 0;
            if (!ParseHex4(&cp)) return false;
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              // High surrogate: must pair with a low surrogate escape.
              if (pos + 2 > text.size() || text[pos] != '\\' ||
                  text[pos + 1] != 'u') {
                return Fail("lone high surrogate");
              }
              pos += 2;
              uint32_t low = 0;
              if (!ParseHex4(&low)) return false;
              if (low < 0xDC00 || low > 0xDFFF) {
                return Fail("invalid surrogate pair");
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              return Fail("lone low surrogate");
            }
            // Encode the code point as UTF-8.
            if (cp < 0x80) {
              out->push_back(static_cast<char>(cp));
            } else if (cp < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
              out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            } else if (cp < 0x10000) {
              out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
              out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            } else {
              out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
              out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            }
            break;
          }
          default:
            return Fail("invalid escape character");
        }
        continue;
      }
      if (c < 0x20) return Fail("unescaped control character");
      // Raw bytes (incl. multibyte UTF-8, validated whole-input upfront).
      out->push_back(static_cast<char>(c));
      ++pos;
    }
  }

  bool ParseNumber(double* out) {
    const size_t start = pos;
    if (!AtEnd() && Peek() == '-') ++pos;
    if (AtEnd() || Peek() < '0' || Peek() > '9') {
      return Fail("invalid number");
    }
    if (Peek() == '0') {
      ++pos;  // no leading zeros
    } else {
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos;
    }
    if (!AtEnd() && Peek() == '.') {
      ++pos;
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        return Fail("invalid fraction");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos;
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      ++pos;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos;
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        return Fail("invalid exponent");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos;
    }
    const std::string token(text.substr(start, pos - start));
    const double value = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(value)) return Fail("number out of range");
    *out = value;
    return true;
  }

  bool ParseValue(JsonValue* out, size_t depth) {
    if (depth > max_depth) return Fail("nesting too deep");
    SkipWhitespace();
    if (AtEnd()) return Fail("unexpected end of input");
    const char c = Peek();
    switch (c) {
      case '{': {
        ++pos;
        out->type = JsonValue::Type::kObject;
        SkipWhitespace();
        if (!AtEnd() && Peek() == '}') {
          ++pos;
          return true;
        }
        while (true) {
          SkipWhitespace();
          if (AtEnd() || Peek() != '"') return Fail("expected object key");
          std::string key;
          if (!ParseString(&key)) return false;
          SkipWhitespace();
          if (AtEnd() || Peek() != ':') return Fail("expected ':'");
          ++pos;
          JsonValue value;
          if (!ParseValue(&value, depth + 1)) return false;
          out->object_items.emplace_back(std::move(key), std::move(value));
          SkipWhitespace();
          if (!AtEnd() && Peek() == ',') {
            ++pos;
            continue;
          }
          if (!AtEnd() && Peek() == '}') {
            ++pos;
            return true;
          }
          return Fail("expected ',' or '}'");
        }
      }
      case '[': {
        ++pos;
        out->type = JsonValue::Type::kArray;
        SkipWhitespace();
        if (!AtEnd() && Peek() == ']') {
          ++pos;
          return true;
        }
        while (true) {
          JsonValue item;
          if (!ParseValue(&item, depth + 1)) return false;
          out->array_items.push_back(std::move(item));
          SkipWhitespace();
          if (!AtEnd() && Peek() == ',') {
            ++pos;
            continue;
          }
          if (!AtEnd() && Peek() == ']') {
            ++pos;
            return true;
          }
          return Fail("expected ',' or ']'");
        }
      }
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->string_value);
      case 't':
        out->type = JsonValue::Type::kBool;
        out->bool_value = true;
        return Literal("true");
      case 'f':
        out->type = JsonValue::Type::kBool;
        out->bool_value = false;
        return Literal("false");
      case 'n':
        out->type = JsonValue::Type::kNull;
        return Literal("null");
      default:
        out->type = JsonValue::Type::kNumber;
        return ParseNumber(&out->number_value);
    }
  }
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [name, value] : object_items) {
    if (name == key) return &value;
  }
  return nullptr;
}

bool IsValidUtf8(std::string_view text) {
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    const unsigned char b0 = static_cast<unsigned char>(text[i]);
    if (b0 < 0x80) {
      ++i;
      continue;
    }
    size_t len;
    uint32_t cp;
    if ((b0 & 0xE0) == 0xC0) {
      len = 2;
      cp = b0 & 0x1F;
    } else if ((b0 & 0xF0) == 0xE0) {
      len = 3;
      cp = b0 & 0x0F;
    } else if ((b0 & 0xF8) == 0xF0) {
      len = 4;
      cp = b0 & 0x07;
    } else {
      return false;  // continuation or invalid lead byte
    }
    if (i + len > n) return false;
    for (size_t k = 1; k < len; ++k) {
      const unsigned char b = static_cast<unsigned char>(text[i + k]);
      if ((b & 0xC0) != 0x80) return false;
      cp = (cp << 6) | (b & 0x3F);
    }
    // Overlongs, surrogates, and out-of-range code points.
    if ((len == 2 && cp < 0x80) || (len == 3 && cp < 0x800) ||
        (len == 4 && cp < 0x10000) || cp > 0x10FFFF ||
        (cp >= 0xD800 && cp <= 0xDFFF)) {
      return false;
    }
    i += len;
  }
  return true;
}

bool ParseJson(std::string_view text, JsonValue* out, std::string* error,
               size_t max_depth) {
  error->clear();
  *out = JsonValue();
  if (!IsValidUtf8(text)) {
    *error = "body is not valid UTF-8";
    return false;
  }
  Parser parser{text, 0, max_depth, error};
  if (!parser.ParseValue(out, 0)) return false;
  parser.SkipWhitespace();
  if (!parser.AtEnd()) {
    parser.Fail("trailing characters after document");
    return false;
  }
  return true;
}

}  // namespace kpef::serve
