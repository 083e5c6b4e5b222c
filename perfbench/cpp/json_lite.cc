#include "json_lite.h"

#include <cctype>
#include <cstdlib>

namespace perfbench {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  bool ParseDocument(JsonValue* out) {
    if (!ParseValue(out, 0)) return false;
    SkipSpace();
    return pos_ == s_.size();
  }

 private:
  static constexpr int kMaxDepth = 64;

  void SkipSpace() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        c = s_[pos_++];
        if (c == 'n') c = '\n';
        if (c == 't') c = '\t';
        if (c == 'u') {  // metric names are ASCII; keep the escape as is
          out->append("\\u");
          continue;
        }
      }
      out->push_back(c);
    }
    return Consume('"');
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return false;
    SkipSpace();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      out->type = JsonValue::Type::kObject;
      if (Consume('}')) return true;
      do {
        std::string key;
        if (!ParseString(&key) || !Consume(':')) return false;
        if (!ParseValue(&out->members[key], depth + 1)) return false;
      } while (Consume(','));
      return Consume('}');
    }
    if (c == '[') {
      ++pos_;
      out->type = JsonValue::Type::kArray;
      if (Consume(']')) return true;
      do {
        out->items.emplace_back();
        if (!ParseValue(&out->items.back(), depth + 1)) return false;
      } while (Consume(','));
      return Consume(']');
    }
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->text);
    }
    for (std::string_view word : {"true", "false", "null"}) {
      if (s_.substr(pos_, word.size()) == word) {
        pos_ += word.size();
        out->type = word == "null" ? JsonValue::Type::kNull
                                   : JsonValue::Type::kBool;
        return true;
      }
    }
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->type = JsonValue::Type::kNumber;
    out->text = std::string(s_.substr(start, pos_ - start));
    return true;
  }

  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  auto it = members.find(std::string(key));
  return it == members.end() ? nullptr : &it->second;
}

unsigned long long JsonValue::AsU64() const {
  return type == Type::kNumber ? std::strtoull(text.c_str(), nullptr, 10) : 0;
}

bool ParseJson(std::string_view text, JsonValue* out) {
  *out = JsonValue{};
  return Parser(text).ParseDocument(out);
}

}  // namespace perfbench
