// Minimal dependency-free JSON document: build with operator[] /
// push_back, serialize with dump(), read back with parse().
//
// Design points that matter for the stats pipeline:
//   * objects preserve insertion order, so dump() output is byte-stable
//     across runs of the same build (CI diffs stay meaningful);
//   * non-negative integers are stored and emitted as exact uint64
//     (counters never pass through a double);
//   * doubles always serialize with a '.' or exponent, so a parse of our
//     own output reproduces the original value *and* type (round-trip).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace amo::sim {

class Json {
 public:
  using Object = std::vector<std::pair<std::string, Json>>;
  using Array = std::vector<Json>;

  Json() = default;  // null
  Json(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  Json(bool b) : value_(b) {}  // NOLINT
  Json(double d) : value_(d) {}  // NOLINT
  Json(std::uint64_t v) : value_(v) {}  // NOLINT
  Json(std::int64_t v) {  // NOLINT
    if (v >= 0) value_ = static_cast<std::uint64_t>(v);
    else value_ = v;
  }
  Json(int v) : Json(static_cast<std::int64_t>(v)) {}  // NOLINT
  Json(unsigned v) : Json(static_cast<std::uint64_t>(v)) {}  // NOLINT
  Json(const char* s) : value_(std::string(s)) {}  // NOLINT
  Json(std::string s) : value_(std::move(s)) {}  // NOLINT

  [[nodiscard]] static Json object() {
    Json j;
    j.value_ = Object{};
    return j;
  }
  [[nodiscard]] static Json array() {
    Json j;
    j.value_ = Array{};
    return j;
  }

  [[nodiscard]] bool is_null() const {
    return std::holds_alternative<std::nullptr_t>(value_);
  }
  [[nodiscard]] bool is_bool() const {
    return std::holds_alternative<bool>(value_);
  }
  [[nodiscard]] bool is_number() const {
    return std::holds_alternative<std::uint64_t>(value_) ||
           std::holds_alternative<std::int64_t>(value_) ||
           std::holds_alternative<double>(value_);
  }
  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(value_);
  }
  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<Object>(value_);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<Array>(value_);
  }

  [[nodiscard]] bool as_bool() const { return std::get<bool>(value_); }
  /// Numeric value as uint64. Throws std::bad_variant_access-style errors
  /// (std::runtime_error for sign/type mismatch).
  [[nodiscard]] std::uint64_t as_uint() const;
  [[nodiscard]] std::int64_t as_int() const;
  /// Any numeric alternative, widened to double.
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const {
    return std::get<std::string>(value_);
  }

  /// Object access: inserts the key (null value) if absent. A null Json
  /// is promoted to an empty object; any other type throws.
  Json& operator[](const std::string& key);
  /// Read-only lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(const std::string& key) const;
  /// Read-only lookup following a dotted path ("node0.amu.ops").
  [[nodiscard]] const Json* find_path(std::string_view dotted) const;
  /// Read-only lookup; throws std::out_of_range when absent.
  [[nodiscard]] const Json& at(const std::string& key) const;

  /// Array append. A null Json is promoted to an empty array.
  void push_back(Json v);
  [[nodiscard]] const Json& operator[](std::size_t i) const {
    return std::get<Array>(value_).at(i);
  }

  /// Elements of an object / array (throws on type mismatch).
  [[nodiscard]] const Object& items() const { return std::get<Object>(value_); }
  [[nodiscard]] Object& items() { return std::get<Object>(value_); }
  [[nodiscard]] const Array& elements() const { return std::get<Array>(value_); }
  [[nodiscard]] std::size_t size() const;

  /// Serializes; indent < 0 means compact single-line output.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Parses a complete JSON text (trailing garbage is an error).
  /// Throws std::runtime_error with a byte offset on malformed input.
  [[nodiscard]] static Json parse(std::string_view text);

  bool operator==(const Json&) const = default;

 private:
  using Value = std::variant<std::nullptr_t, bool, std::uint64_t,
                             std::int64_t, double, std::string, Object, Array>;

  void dump_to(std::string& out, int indent, int depth) const;

  Value value_ = nullptr;
};

}  // namespace amo::sim
