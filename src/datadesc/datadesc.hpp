/// \file datadesc.hpp
/// Data description trees — GRAS's `gras_datadesc` mechanism. A DataDesc
/// describes the logical shape of a message payload: scalars (with
/// architecture-dependent layout), strings, fixed and dynamic arrays,
/// structures, and nullable references. Each factory also compiles the node
/// into a flat conversion plan (plan.hpp) that the binary codecs execute.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "datadesc/arch.hpp"
#include "datadesc/value.hpp"

namespace sg::datadesc {

class DataDesc;
struct Plan;
using DataDescPtr = std::shared_ptr<const DataDesc>;

class DataDesc {
public:
  enum class Kind { kScalar, kString, kStruct, kFixedArray, kDynArray, kRef };

  struct Field {
    std::string name;
    DataDescPtr desc;
  };

  Kind kind() const { return kind_; }
  const std::string& name() const { return name_; }
  CType ctype() const { return ctype_; }
  const std::vector<Field>& fields() const { return fields_; }
  const DataDescPtr& element() const { return element_; }
  size_t array_size() const { return array_size_; }
  /// The node compiled into a flat conversion plan (built by the factory).
  const Plan& plan() const { return *plan_; }

  ~DataDesc();

  // -- factories ---------------------------------------------------------------
  static DataDescPtr scalar(CType type, const std::string& name = "");
  static DataDescPtr string(const std::string& name = "string");
  static DataDescPtr struct_(const std::string& name, std::vector<Field> fields);
  static DataDescPtr fixed_array(DataDescPtr element, size_t count, const std::string& name = "");
  static DataDescPtr dyn_array(DataDescPtr element, const std::string& name = "");
  static DataDescPtr ref(DataDescPtr pointee, const std::string& name = "");

  /// Validate that a value matches this description (recursively); throws
  /// xbt::InvalidArgument with a path on mismatch.
  void check(const Value& v, const std::string& path = "") const;

private:
  explicit DataDesc(Kind kind);
  /// Build plan_ from the members the factory has set.
  void compile();

  Kind kind_;
  std::string name_;
  CType ctype_ = CType::kInt32;
  std::vector<Field> fields_;
  DataDescPtr element_;
  size_t array_size_ = 0;
  std::unique_ptr<const Plan> plan_;
};

/// The global "by name" registry used by gras_datadesc_by_name (pre-seeded
/// with the primitive types: "int8".."uint64", "long", "ulong", "float",
/// "double", "int" (=int32), "string").
DataDescPtr datadesc_by_name(const std::string& name);
void datadesc_register(const std::string& name, DataDescPtr desc);

}  // namespace sg::datadesc
