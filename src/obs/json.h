#ifndef P3GM_OBS_JSON_H_
#define P3GM_OBS_JSON_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace p3gm {
namespace obs {
namespace json {

/// JSON utilities shared by every obs exporter (registry, trace, bench
/// schema) and by the BENCH_*.json readers (tools/bench_compare). The
/// parser is deliberately minimal — it exists to read back files this
/// repo writes, not to be a general JSON library — but it accepts the
/// full grammar (nested containers, all escapes, \uXXXX incl. surrogate
/// pairs, scientific-notation numbers).

/// Escapes `s` for embedding between double quotes in a JSON document:
/// `"` `\` and control characters (the latter as \u00XX, with the
/// common \n \t \r \b \f short forms).
std::string Escape(const std::string& s);

/// The longest text AppendNumber writes: sign, 17 digits, '.' and a
/// three-digit exponent, as in -2.2250738585072014e-308.
inline constexpr std::size_t kMaxNumberChars = 24;

/// Writes `content` to `path`, truncating it; false on any I/O error.
/// Every obs exporter's Write* method ends here.
bool WriteFile(const std::string& path, const std::string& content);

/// Appends `v` to `*out` exactly as printf("%.17g") writes it in the C
/// locale: 17 significant digits, so every double round-trips, and '.'
/// as the decimal point whatever the process locale. Non-finite values
/// come out as printf's "inf", "-inf", "nan" and "-nan". Every obs
/// exporter and the /v1/sample encoder format their doubles here.
void AppendNumber(std::string* out, double v);

/// Parsed JSON value. A tagged aggregate rather than a class hierarchy:
/// the schema-reading code pattern-matches on `kind` and the Find/At
/// helpers, and invalid accesses just see the zero value of the field.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<Value> items;                              // kArray
  std::vector<std::pair<std::string, Value>> members;    // kObject, ordered

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* Find(const std::string& key) const;
  /// Find + kind check conveniences for schema readers.
  double NumberOr(const std::string& key, double fallback) const;
  std::string StringOr(const std::string& key,
                       const std::string& fallback) const;
  bool BoolOr(const std::string& key, bool fallback) const;
};

/// Parses `text` into `*out`. Returns false (with a position-carrying
/// message in `*error` when non-null) on malformed input or trailing
/// garbage.
bool Parse(const std::string& text, Value* out, std::string* error);

}  // namespace json
}  // namespace obs
}  // namespace p3gm

#endif  // P3GM_OBS_JSON_H_
