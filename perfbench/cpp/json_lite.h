#ifndef PERFBENCH_JSON_LITE_H_
#define PERFBENCH_JSON_LITE_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A parsed JSON value, enough to read tabulard's `Stats` and `Metrics`
/// responses. Numbers keep their text so 64-bit counters stay exact.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  std::string text;  ///< number text or string contents
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue> members;

  /// Member `key` of an object, or nullptr.
  const JsonValue* Find(std::string_view key) const;
  /// The number as an unsigned integer (0 when not a number).
  unsigned long long AsU64() const;
};

/// Parses `text`; returns false on malformed input.
bool ParseJson(std::string_view text, JsonValue* out);

}  // namespace perfbench

#endif  // PERFBENCH_JSON_LITE_H_
