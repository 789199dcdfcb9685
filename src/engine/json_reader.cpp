#include "engine/json_reader.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace cpsinw::engine {

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (v == nullptr)
    throw std::runtime_error("json: missing key '" + key + "'");
  return *v;
}

bool JsonValue::as_bool(const char* what) const {
  if (type != Type::kBool)
    throw std::runtime_error(std::string("json: ") + what + " is not a bool");
  return boolean;
}

double JsonValue::as_double(const char* what) const {
  if (type != Type::kNumber)
    throw std::runtime_error(std::string("json: ") + what +
                             " is not a number");
  return number;
}

int JsonValue::as_int(const char* what) const {
  const double d = as_double(what);
  if (!(d >= -2147483648.0 && d <= 2147483647.0))
    throw std::runtime_error(std::string("json: ") + what +
                             " is out of int range");
  const int i = static_cast<int>(d);
  if (static_cast<double>(i) != d)
    throw std::runtime_error(std::string("json: ") + what +
                             " is not an integer");
  return i;
}

const std::string& JsonValue::as_string(const char* what) const {
  if (type != Type::kString)
    throw std::runtime_error(std::string("json: ") + what +
                             " is not a string");
  return string;
}

std::uint64_t JsonValue::as_u64(const char* what) const {
  const std::string& s = as_string(what);
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
    throw std::runtime_error(std::string("json: ") + what +
                             " is not a decimal u64 string");
  return std::strtoull(s.c_str(), nullptr, 10);
}

const std::vector<JsonValue>& JsonValue::as_array(const char* what) const {
  if (type != Type::kArray)
    throw std::runtime_error(std::string("json: ") + what +
                             " is not an array");
  return array;
}

JsonValue JsonParser::parse() {
  JsonValue v = parse_value();
  skip_ws();
  if (pos_ != text_.size()) fail("trailing characters");
  return v;
}

void JsonParser::fail(const std::string& why) const {
  throw std::runtime_error("json: malformed JSON at byte " +
                           std::to_string(pos_) + ": " + why);
}

void JsonParser::skip_ws() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
      ++pos_;
    else
      break;
  }
}

char JsonParser::peek() {
  skip_ws();
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_];
}

void JsonParser::expect(char c) {
  if (peek() != c) fail(std::string("expected '") + c + "'");
  ++pos_;
}

JsonValue JsonParser::parse_value() {
  const char c = peek();
  switch (c) {
    case '{': return parse_object();
    case '[': return parse_array();
    case '"': return parse_string();
    case 't': return parse_literal("true", JsonValue::Type::kBool, true);
    case 'f': return parse_literal("false", JsonValue::Type::kBool, false);
    case 'n': return parse_literal("null", JsonValue::Type::kNull, false);
    default: return parse_number();
  }
}

JsonValue JsonParser::parse_literal(const char* word, JsonValue::Type type,
                                    bool b) {
  for (const char* p = word; *p != '\0'; ++p, ++pos_)
    if (pos_ >= text_.size() || text_[pos_] != *p) fail("bad literal");
  JsonValue v;
  v.type = type;
  v.boolean = b;
  return v;
}

JsonValue JsonParser::parse_number() {
  const std::size_t start = pos_;
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
        c == 'e' || c == 'E')
      ++pos_;
    else
      break;
  }
  if (pos_ == start) fail("expected a value");
  const std::string slice = text_.substr(start, pos_ - start);
  char* end = nullptr;
  const double d = std::strtod(slice.c_str(), &end);
  if (end == nullptr || *end != '\0') fail("bad number '" + slice + "'");
  JsonValue v;
  v.type = JsonValue::Type::kNumber;
  v.number = d;
  return v;
}

JsonValue JsonParser::parse_string() {
  expect('"');
  JsonValue v;
  v.type = JsonValue::Type::kString;
  while (true) {
    if (pos_ >= text_.size()) fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') break;
    if (c != '\\') {
      v.string += c;
      continue;
    }
    if (pos_ >= text_.size()) fail("unterminated escape");
    const char e = text_[pos_++];
    switch (e) {
      case '"': v.string += '"'; break;
      case '\\': v.string += '\\'; break;
      case '/': v.string += '/'; break;
      case 'n': v.string += '\n'; break;
      case 't': v.string += '\t'; break;
      case 'r': v.string += '\r'; break;
      case 'b': v.string += '\b'; break;
      case 'f': v.string += '\f'; break;
      case 'u': {
        if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
        unsigned code = 0;
        for (int k = 0; k < 4; ++k) {
          const char h = text_[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9')
            code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f')
            code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F')
            code |= static_cast<unsigned>(h - 'A' + 10);
          else
            fail("bad \\u escape");
        }
        // The cpsinw writers only ever escape control characters; reject
        // the rest instead of mis-decoding UTF-16 surrogates.
        if (code > 0xff) fail("unsupported \\u escape");
        v.string += static_cast<char>(code);
        break;
      }
      default: fail("unknown escape");
    }
  }
  return v;
}

void JsonParser::open_container(char c) {
  expect(c);
  if (++depth_ > kMaxDepth)
    fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
}

JsonValue JsonParser::parse_array() {
  open_container('[');
  JsonValue v;
  v.type = JsonValue::Type::kArray;
  if (peek() == ']') {
    ++pos_;
    --depth_;
    return v;
  }
  while (true) {
    v.array.push_back(parse_value());
    const char c = peek();
    ++pos_;
    if (c == ']') break;
    if (c != ',') fail("expected ',' or ']'");
  }
  --depth_;
  return v;
}

JsonValue JsonParser::parse_object() {
  open_container('{');
  JsonValue v;
  v.type = JsonValue::Type::kObject;
  if (peek() == '}') {
    ++pos_;
    --depth_;
    return v;
  }
  while (true) {
    JsonValue key = parse_string();
    expect(':');
    v.object.emplace_back(std::move(key.string), parse_value());
    const char c = peek();
    ++pos_;
    if (c == '}') break;
    if (c != ',') fail("expected ',' or '}'");
  }
  --depth_;
  return v;
}

JsonValue parse_json(const std::string& text) {
  return JsonParser(text).parse();
}

}  // namespace cpsinw::engine
