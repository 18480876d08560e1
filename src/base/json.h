#ifndef LDLOPT_BASE_JSON_H_
#define LDLOPT_BASE_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/status.h"

namespace ldl {

/// The one JSON codec: every JSON document ldlopt writes goes through
/// JsonWriter, and every one it reads goes through ParseJson.

/// Deepest array/object nesting ParseJson accepts. Deeper input is an error,
/// not a stack overflow.
inline constexpr int kJsonMaxDepth = 512;

/// A parsed JSON value (RFC 8259).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  /// A string's decoded bytes (\u escapes become UTF-8), or a number's
  /// source text, kept so that no digit is lost before a typed read.
  std::string text;
  std::vector<JsonValue> items;                            ///< kArray
  std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject

  /// The first member named `key`; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  /// Typed reads that map a value onto a field. Each fails, leaving *out
  /// unchanged, unless the value fits the field exactly:
  ///   uint64_t: a number with no sign, fraction or exponent, <= 2^64-1;
  ///   double:   a number in double range, or one of JsonWriter's
  ///             non-finite spellings "inf", "-inf", "nan";
  ///   bool:     true or false;  std::string: a string.
  Status Get(uint64_t* out) const;
  Status Get(double* out) const;
  Status Get(bool* out) const;
  Status Get(std::string* out) const;

  bool operator==(const JsonValue& other) const = default;
};

/// Parses exactly one JSON value (plus surrounding whitespace). Errors name
/// the line and column. Raw bytes >= 0x80 inside strings are kept as they
/// are; \uXXXX escapes, surrogate pairs included, decode to UTF-8.
Result<JsonValue> ParseJson(std::string_view text);

/// The one spelling of a finite double, in JSON and in Prometheus text:
/// %.15g when that parses back to `v`, else %.17g (always exact).
std::string FormatExactDouble(double v);

/// Streaming writer of compact JSON. It places commas itself:
///
///   JsonWriter w;
///   w.BeginObject().Member("n", 3).Key("xs").BeginArray();
///   for (double x : xs) w.Value(x);
///   w.EndArray().EndObject();   // {"n":3,"xs":[...]}
///
/// Doubles are spelled by FormatExactDouble; non-finite ones become the
/// strings "inf", "-inf" and "nan".
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }
  JsonWriter& Key(std::string_view key);

  /// Writes a string, bool, integer, double, or parsed JsonValue (whose
  /// numbers keep their source text).
  template <typename T>
  JsonWriter& Value(const T& v) {
    if constexpr (std::is_same_v<T, JsonValue>) {
      WriteDom(v);
    } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      WriteString(v);
    } else if constexpr (std::is_same_v<T, bool>) {
      Raw(v ? "true" : "false");
    } else if constexpr (std::is_integral_v<T>) {
      Raw(std::to_string(v));
    } else {
      static_assert(std::is_floating_point_v<T>, "no JSON spelling for T");
      WriteDouble(static_cast<double>(v));
    }
    return *this;
  }

  template <typename T>
  JsonWriter& Member(std::string_view key, const T& v) {
    return Key(key).Value(v);
  }

  const std::string& str() const { return out_; }

 private:
  JsonWriter& Open(char bracket);
  JsonWriter& Close(char bracket);
  void Separate();
  void Raw(std::string_view token);
  void WriteString(std::string_view v);
  void WriteDouble(double v);
  void WriteDom(const JsonValue& v);

  std::string out_;
  /// Per open container: whether it holds an element yet (comma needed).
  std::vector<bool> nonempty_;
  bool after_key_ = false;
};

}  // namespace ldl

#endif  // LDLOPT_BASE_JSON_H_
