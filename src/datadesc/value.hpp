/// \file value.hpp
/// Architecture-neutral in-memory representation of described data: the tree
/// form a payload takes between encode and decode. Scalars are held widened
/// (int64 / uint64 / double); structure mirrors the DataDesc.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace sg::datadesc {

class Value;
using ValueList = std::vector<Value>;
/// Field order matters (wire order), so structs are ordered name/value pairs.
using ValueStruct = std::vector<std::pair<std::string, Value>>;

class Value {
public:
  Value() : data_(int64_t{0}) {}
  Value(int64_t v) : data_(v) {}                    // NOLINT(google-explicit-constructor)
  Value(uint64_t v) : data_(v) {}                   // NOLINT
  Value(int v) : data_(static_cast<int64_t>(v)) {}  // NOLINT
  Value(double v) : data_(v) {}                     // NOLINT
  Value(std::string v) : data_(std::move(v)) {}     // NOLINT
  Value(const char* v) : data_(std::string(v)) {}   // NOLINT
  Value(ValueList v) : data_(std::move(v)) {}       // NOLINT
  Value(ValueStruct v) : data_(std::move(v)) {}     // NOLINT

  bool is_int() const { return std::holds_alternative<int64_t>(data_); }
  bool is_uint() const { return std::holds_alternative<uint64_t>(data_); }
  bool is_float() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_list() const { return std::holds_alternative<ValueList>(data_); }
  bool is_struct() const { return std::holds_alternative<ValueStruct>(data_); }
  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }

  static Value null() {
    Value v;
    v.data_ = std::monostate{};
    return v;
  }

  // Accessors throw xbt::InvalidArgument on a type mismatch; an integer
  // reads as either signedness.
  int64_t as_int() const {
    if (const auto* p = std::get_if<int64_t>(&data_))
      return *p;
    if (const auto* p = std::get_if<uint64_t>(&data_))
      return static_cast<int64_t>(*p);
    type_error("an integer");
  }
  uint64_t as_uint() const {
    if (const auto* p = std::get_if<uint64_t>(&data_))
      return *p;
    if (const auto* p = std::get_if<int64_t>(&data_))
      return static_cast<uint64_t>(*p);
    type_error("an integer");
  }
  double as_float() const { return get<double>("a float"); }
  const std::string& as_string() const { return get<std::string>("a string"); }
  const ValueList& as_list() const { return get<ValueList>("a list"); }
  ValueList& as_list() { return get<ValueList>("a list"); }
  const ValueStruct& as_struct() const { return get<ValueStruct>("a struct"); }
  ValueStruct& as_struct() { return get<ValueStruct>("a struct"); }

  /// Struct field access by name (throws if absent).
  const Value& field(const std::string& name) const;

  friend bool operator==(const Value& a, const Value& b) { return a.data_ == b.data_; }

  /// Debug rendering (also used by tests for diffs).
  std::string to_string() const;

private:
  template <typename T>
  const T& get(const char* what) const {
    if (const auto* p = std::get_if<T>(&data_))
      return *p;
    type_error(what);
  }
  template <typename T>
  T& get(const char* what) {
    if (auto* p = std::get_if<T>(&data_))
      return *p;
    type_error(what);
  }
  /// Throw "Value is not <what>: <rendering>".
  [[noreturn]] void type_error(const char* what) const;

  std::variant<std::monostate, int64_t, uint64_t, double, std::string, ValueList, ValueStruct> data_;
};

}  // namespace sg::datadesc
