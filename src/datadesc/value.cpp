#include "datadesc/value.hpp"

#include <sstream>

#include "xbt/exception.hpp"

namespace sg::datadesc {

void Value::type_error(const char* what) const {
  throw xbt::InvalidArgument(std::string("Value is not ") + what + ": " + to_string());
}

const Value& Value::field(const std::string& name) const {
  for (const auto& [k, v] : as_struct())
    if (k == name)
      return v;
  throw xbt::InvalidArgument("no such field: " + name);
}

std::string Value::to_string() const {
  std::ostringstream out;
  if (is_null()) {
    out << "null";
  } else if (is_int()) {
    out << std::get<int64_t>(data_);
  } else if (is_uint()) {
    out << std::get<uint64_t>(data_) << "u";
  } else if (is_float()) {
    out.precision(17);
    out << std::get<double>(data_);
  } else if (is_string()) {
    out << '"' << std::get<std::string>(data_) << '"';
  } else if (is_list()) {
    out << "[";
    bool first = true;
    for (const Value& v : std::get<ValueList>(data_)) {
      if (!first)
        out << ", ";
      first = false;
      out << v.to_string();
    }
    out << "]";
  } else {
    out << "{";
    bool first = true;
    for (const auto& [k, v] : std::get<ValueStruct>(data_)) {
      if (!first)
        out << ", ";
      first = false;
      out << k << ": " << v.to_string();
    }
    out << "}";
  }
  return out.str();
}

}  // namespace sg::datadesc
