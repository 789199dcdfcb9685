// Minimal recursive-descent JSON reader shared by everything in the
// engine that consumes untrusted JSON: the shard_io wire documents, the
// server stats responses, and the telemetry trace files the tests
// validate.  Every malformed input becomes a std::runtime_error with a
// byte offset, never UB — peers are untrusted by design.
// That includes nesting: containers deeper than JsonParser::kMaxDepth
// are rejected, so recursion depth is bounded for any frame size.
//
// This is deliberately not a general JSON library: no surrogate pairs,
// numbers decode to double (64-bit integers travel as decimal strings in
// every cpsinw protocol), objects preserve insertion order.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cpsinw::engine {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    if (type != Type::kObject) return nullptr;
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
  /// @throws std::runtime_error when the key is absent
  [[nodiscard]] const JsonValue& at(const std::string& key) const;
  /// Typed accessors; `what` names the field in the error message.
  /// @throws std::runtime_error on a type mismatch (and, for as_int, on a
  ///   non-integral or out-of-range number — a double->int conversion of
  ///   an out-of-range value is UB and the input is untrusted)
  [[nodiscard]] bool as_bool(const char* what) const;
  [[nodiscard]] double as_double(const char* what) const;
  [[nodiscard]] int as_int(const char* what) const;
  [[nodiscard]] const std::string& as_string(const char* what) const;
  /// 64-bit values travel as decimal strings: a double cannot carry a full
  /// uint64_t.
  [[nodiscard]] std::uint64_t as_u64(const char* what) const;
  [[nodiscard]] const std::vector<JsonValue>& as_array(const char* what) const;
};

class JsonParser {
 public:
  /// Deepest array/object nesting accepted.  The reader recurses once per
  /// level, so without a bound one hostile frame (1 MiB of '[') overflows
  /// the stack; every cpsinw writer nests fewer than 10 levels.
  static constexpr int kMaxDepth = 64;

  explicit JsonParser(const std::string& text) : text_(text) {}

  /// Parses the whole input as one value (trailing bytes are an error).
  /// @throws std::runtime_error naming the byte offset of the problem
  [[nodiscard]] JsonValue parse();

 private:
  [[noreturn]] void fail(const std::string& why) const;
  void skip_ws();
  char peek();
  void expect(char c);
  JsonValue parse_value();
  JsonValue parse_literal(const char* word, JsonValue::Type type, bool b);
  JsonValue parse_number();
  JsonValue parse_string();
  JsonValue parse_array();
  JsonValue parse_object();
  /// Consumes the container's opening byte and enters one nesting level.
  /// @throws std::runtime_error past kMaxDepth
  void open_container(char c);

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< containers currently open
};

/// Convenience one-shot: parse `text` or throw.
[[nodiscard]] JsonValue parse_json(const std::string& text);

}  // namespace cpsinw::engine
