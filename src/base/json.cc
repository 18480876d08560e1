#include "base/json.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "base/strings.h"

namespace ldl {

namespace {

/// Recursive-descent reader for RFC 8259. Positions are byte offsets; the
/// first failure is kept with its line and column.
class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue root;
    if (Value(&root, 0)) {
      SkipSpace();
      if (pos_ == text_.size()) return root;
      Fail("trailing content after JSON value");
    }
    return Status::InvalidArgument(error_);
  }

 private:
  bool Fail(std::string_view message) {
    if (!error_.empty()) return false;
    size_t line = 1, col = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    error_ = StrCat("line ", line, " col ", col, ": ", message);
    return false;
  }

  bool AtEnd() const { return pos_ >= text_.size(); }

  void SkipSpace() {
    while (!AtEnd() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                        text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (AtEnd() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool Value(JsonValue* out, int depth) {
    SkipSpace();
    if (AtEnd()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
      case '[':
        if (depth >= kJsonMaxDepth) {
          return Fail(StrCat("nesting deeper than ", kJsonMaxDepth));
        }
        return text_[pos_] == '{' ? Object(out, depth + 1)
                                  : Array(out, depth + 1);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return String(&out->text);
      case 't':
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = text_[pos_] == 't';
        return Literal(out->boolean ? "true" : "false");
      case 'n':
        return Literal("null");
      default:
        out->kind = JsonValue::Kind::kNumber;
        return Number(&out->text);
    }
  }

  bool Object(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    if (Consume('}')) return true;
    do {
      SkipSpace();
      std::string key;
      if (AtEnd() || text_[pos_] != '"') return Fail("expected string key");
      if (!String(&key)) return false;
      if (!Consume(':')) return Fail("expected ':' after key");
      JsonValue value;
      if (!Value(&value, depth)) return false;
      out->members.emplace_back(std::move(key), std::move(value));
    } while (Consume(','));
    return Consume('}') || Fail("expected ',' or '}' in object");
  }

  bool Array(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    if (Consume(']')) return true;
    do {
      out->items.emplace_back();
      if (!Value(&out->items.back(), depth)) return false;
    } while (Consume(','));
    return Consume(']') || Fail("expected ',' or ']' in array");
  }

  bool Hex4(unsigned* out) {
    const std::string hex(text_.substr(pos_, 4));
    if (hex.size() != 4 || !std::all_of(hex.begin(), hex.end(), [](char c) {
          return std::isxdigit(static_cast<unsigned char>(c));
        })) {
      return Fail("invalid \\u escape");
    }
    *out = static_cast<unsigned>(std::strtoul(hex.c_str(), nullptr, 16));
    pos_ += 4;
    return true;
  }

  /// Decodes \uXXXX (pos_ on the 'u'), pairing a high surrogate with the
  /// low surrogate that must follow it, and appends the code point as UTF-8.
  bool UnicodeEscape(std::string* out) {
    ++pos_;  // 'u'
    unsigned cp = 0;
    if (!Hex4(&cp)) return false;
    if (cp >= 0xDC00 && cp <= 0xDFFF) return Fail("unpaired low surrogate");
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      unsigned low = 0;
      if (text_.substr(pos_, 2) != "\\u") return Fail("unpaired high surrogate");
      pos_ += 2;
      if (!Hex4(&low)) return false;
      if (low < 0xDC00 || low > 0xDFFF) return Fail("unpaired high surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    }
    // UTF-8: a lead byte, then 6 bits per continuation byte.
    static constexpr unsigned kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
    const int extra = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    out->push_back(static_cast<char>(kLead[extra] | (cp >> (6 * extra))));
    for (int i = extra - 1; i >= 0; --i) {
      out->push_back(static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F)));
    }
    return true;
  }

  bool String(std::string* out) {
    ++pos_;  // '"'
    while (!AtEnd()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      if (++pos_ >= text_.size()) break;
      switch (text_[pos_]) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u':
          if (!UnicodeEscape(out)) return false;
          continue;
        default:
          return Fail("invalid escape character");
      }
      ++pos_;
    }
    return Fail("unterminated string");
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return Fail(StrCat("invalid literal, expected ", word));
    }
    pos_ += word.size();
    return true;
  }

  bool Digits() {
    const size_t start = pos_;
    while (!AtEnd() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    return pos_ > start;
  }

  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  bool Number(std::string* out) {
    const size_t start = pos_;
    if (text_[pos_] == '-') ++pos_;
    if (!AtEnd() && text_[pos_] == '0') {
      ++pos_;
    } else if (!Digits()) {
      return Fail("invalid value");
    }
    if (!AtEnd() && text_[pos_] == '.') {
      ++pos_;
      if (!Digits()) return Fail("digit expected after decimal point");
    }
    if (!AtEnd() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (!AtEnd() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (!Digits()) return Fail("digit expected in exponent");
    }
    out->assign(text_.substr(start, pos_ - start));
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

Status WrongKind(const char* expected, const JsonValue& v) {
  return Status::InvalidArgument(
      StrCat("expected ", expected,
             v.kind == JsonValue::Kind::kNumber ? ", got " : "",
             v.kind == JsonValue::Kind::kNumber ? v.text : ""));
}

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

Status JsonValue::Get(uint64_t* out) const {
  if (kind != Kind::kNumber ||
      !ParseUint(text, std::numeric_limits<uint64_t>::max(), out)) {
    return WrongKind("an unsigned integer", *this);
  }
  return Status::OK();
}

Status JsonValue::Get(double* out) const {
  double v = 0;
  if (kind == Kind::kNumber) {
    v = std::strtod(text.c_str(), nullptr);
    if (!std::isfinite(v)) return WrongKind("a number in double range", *this);
  } else if (kind == Kind::kString && text == "nan") {
    v = std::numeric_limits<double>::quiet_NaN();
  } else if (kind == Kind::kString && (text == "inf" || text == "-inf")) {
    v = text[0] == '-' ? -HUGE_VAL : HUGE_VAL;
  } else {
    return WrongKind("a number", *this);
  }
  *out = v;
  return Status::OK();
}

Status JsonValue::Get(bool* out) const {
  if (kind != Kind::kBool) return WrongKind("true or false", *this);
  *out = boolean;
  return Status::OK();
}

Status JsonValue::Get(std::string* out) const {
  if (kind != Kind::kString) return WrongKind("a string", *this);
  *out = text;
  return Status::OK();
}

Result<JsonValue> ParseJson(std::string_view text) {
  return Reader(text).Parse();
}

std::string FormatExactDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  if (std::strtod(buf, nullptr) != v) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

void JsonWriter::Separate() {
  if (after_key_) {
    after_key_ = false;
  } else if (!nonempty_.empty()) {
    if (nonempty_.back()) out_.push_back(',');
    nonempty_.back() = true;
  }
}

void JsonWriter::Raw(std::string_view token) {
  Separate();
  out_.append(token);
}

JsonWriter& JsonWriter::Open(char bracket) {
  Separate();
  out_.push_back(bracket);
  nonempty_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  nonempty_.pop_back();
  out_.push_back(bracket);
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  WriteString(key);
  out_.push_back(':');
  after_key_ = true;
  return *this;
}

void JsonWriter::WriteString(std::string_view v) {
  Separate();
  StrAppend(&out_, "\"", JsonEscape(v), "\"");
}

void JsonWriter::WriteDouble(double v) {
  if (std::isnan(v)) {
    WriteString("nan");
  } else if (std::isinf(v)) {
    WriteString(v > 0 ? "inf" : "-inf");
  } else {
    Raw(FormatExactDouble(v));
  }
}

void JsonWriter::WriteDom(const JsonValue& v) {
  using Kind = JsonValue::Kind;
  if (v.kind == Kind::kArray) {
    BeginArray();
    for (const JsonValue& item : v.items) Value(item);
    EndArray();
  } else if (v.kind == Kind::kObject) {
    BeginObject();
    for (const auto& [key, value] : v.members) Member(key, value);
    EndObject();
  } else if (v.kind == Kind::kString) {
    WriteString(v.text);
  } else if (v.kind == Kind::kNumber) {
    Raw(v.text);
  } else {
    Raw(v.kind == Kind::kNull ? "null" : v.boolean ? "true" : "false");
  }
}

}  // namespace ldl
