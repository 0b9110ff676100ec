#include "datadesc/datadesc.hpp"

#include <algorithm>
#include <map>
#include <mutex>

#include "datadesc/plan.hpp"
#include "datadesc/wire.hpp"
#include "xbt/exception.hpp"

namespace sg::datadesc {
namespace {

/// Encoders start from a buffer of the plan's fixed size, capped here: past
/// it the buffer grows on demand, so a huge fixed array costs no up-front
/// allocation before its value is even checked.
constexpr size_t kFixedBytesCap = size_t{1} << 16;

/// Bytes a scalar can take on any binary codec's wire: at most 8 (or the 4 of
/// XDR's quantization) plus alignment padding, which never exceeds the width.
size_t scalar_bound(CType t) {
  switch (t) {
    case CType::kInt64:
    case CType::kUInt64:
    case CType::kLong:
    case CType::kULong:
    case CType::kDouble:
      return 8 + 7;
    default:
      return 4 + 3;
  }
}

/// Length word, its alignment padding, a NUL and the tail padding.
constexpr size_t kStringFraming = 3 + 4 + 1 + 3;
constexpr size_t kCountFraming = 3 + 4;
constexpr size_t kRefMarker = 4;

void put_name(WireWriter& meta, const std::string& name) {
  meta.put_bits(name.size(), 2, /*big_endian=*/true);
  meta.put_bytes(name.data(), name.size());
}

}  // namespace

DataDesc::DataDesc(Kind kind) : kind_(kind) {}
DataDesc::~DataDesc() = default;

void DataDesc::compile() {
  auto plan = std::make_unique<Plan>();
  plan->ops.push_back(PlanOp{kind_, ctype_, 1, 0, &name_, nullptr});
  WireWriter meta;
  // Appends a child's ops and metadata; returns its fixed size.
  auto add_child = [&plan, &meta](const DataDesc& child, const std::string* field) {
    const Plan& c = child.plan();
    const size_t at = plan->ops.size();
    plan->ops.insert(plan->ops.end(), c.ops.begin(), c.ops.end());
    plan->ops[at].field = field;
    meta.put_bytes(c.meta.data(), c.meta.size());
    return c.fixed_bytes;
  };
  meta.put_u8(static_cast<std::uint8_t>(kind_));
  meta.put_u8(static_cast<std::uint8_t>(ctype_));
  put_name(meta, name_);
  size_t fixed = 0;
  switch (kind_) {
    case Kind::kScalar:
      fixed = scalar_bound(ctype_);
      break;
    case Kind::kString:
      fixed = kStringFraming;
      break;
    case Kind::kStruct:
      plan->ops[0].count = fields_.size();
      meta.put_bits(fields_.size(), 2, true);
      for (const Field& f : fields_) {
        put_name(meta, f.name);
        fixed += add_child(*f.desc, &f.name);
      }
      break;
    case Kind::kFixedArray: {
      plan->ops[0].count = array_size_;
      meta.put_bits(array_size_, 4, true);
      const size_t element = add_child(*element_, nullptr);
      fixed = element == 0 || array_size_ < kFixedBytesCap / element ? array_size_ * element
                                                                    : kFixedBytesCap;
      break;
    }
    case Kind::kDynArray:
      add_child(*element_, nullptr);  // its elements are not part of the fixed size
      fixed = kCountFraming;
      break;
    case Kind::kRef:
      fixed = kRefMarker + add_child(*element_, nullptr);
      break;
  }
  plan->ops[0].span = static_cast<std::uint32_t>(plan->ops.size());
  plan->meta = meta.take();
  plan->fixed_bytes = std::min(fixed, kFixedBytesCap);
  plan_ = std::move(plan);
}

DataDescPtr DataDesc::scalar(CType type, const std::string& name) {
  auto d = std::shared_ptr<DataDesc>(new DataDesc(Kind::kScalar));
  d->ctype_ = type;
  d->name_ = name.empty() ? "scalar" : name;
  d->compile();
  return d;
}

DataDescPtr DataDesc::string(const std::string& name) {
  auto d = std::shared_ptr<DataDesc>(new DataDesc(Kind::kString));
  d->name_ = name;
  d->compile();
  return d;
}

DataDescPtr DataDesc::struct_(const std::string& name, std::vector<Field> fields) {
  for (const Field& f : fields)
    if (!f.desc)
      throw xbt::InvalidArgument("struct_: null description for field '" + f.name + "'");
  auto d = std::shared_ptr<DataDesc>(new DataDesc(Kind::kStruct));
  d->name_ = name;
  d->fields_ = std::move(fields);
  d->compile();
  return d;
}

DataDescPtr DataDesc::fixed_array(DataDescPtr element, size_t count, const std::string& name) {
  if (!element)
    throw xbt::InvalidArgument("fixed_array: null element description");
  auto d = std::shared_ptr<DataDesc>(new DataDesc(Kind::kFixedArray));
  d->element_ = std::move(element);
  d->array_size_ = count;
  d->name_ = name.empty() ? "array" : name;
  d->compile();
  return d;
}

DataDescPtr DataDesc::dyn_array(DataDescPtr element, const std::string& name) {
  if (!element)
    throw xbt::InvalidArgument("dyn_array: null element description");
  auto d = std::shared_ptr<DataDesc>(new DataDesc(Kind::kDynArray));
  d->element_ = std::move(element);
  d->name_ = name.empty() ? "dynarray" : name;
  d->compile();
  return d;
}

DataDescPtr DataDesc::ref(DataDescPtr pointee, const std::string& name) {
  if (!pointee)
    throw xbt::InvalidArgument("ref: null pointee description");
  auto d = std::shared_ptr<DataDesc>(new DataDesc(Kind::kRef));
  d->element_ = std::move(pointee);
  d->name_ = name.empty() ? "ref" : name;
  d->compile();
  return d;
}

void DataDesc::check(const Value& v, const std::string& path) const {
  const std::string where = path.empty() ? name_ : path;
  switch (kind_) {
    case Kind::kScalar:
      if (ctype_ == CType::kFloat || ctype_ == CType::kDouble) {
        if (!v.is_float())
          throw xbt::InvalidArgument(where + ": expected float value");
      } else if (!v.is_int() && !v.is_uint()) {
        throw xbt::InvalidArgument(where + ": expected integer value");
      }
      break;
    case Kind::kString:
      if (!v.is_string())
        throw xbt::InvalidArgument(where + ": expected string value");
      break;
    case Kind::kStruct: {
      if (!v.is_struct())
        throw xbt::InvalidArgument(where + ": expected struct value");
      const auto& sv = v.as_struct();
      if (sv.size() != fields_.size())
        throw xbt::InvalidArgument(where + ": field count mismatch");
      for (size_t i = 0; i < fields_.size(); ++i) {
        if (sv[i].first != fields_[i].name)
          throw xbt::InvalidArgument(where + ": field '" + sv[i].first + "' where '" +
                                     fields_[i].name + "' expected");
        fields_[i].desc->check(sv[i].second, where + "." + fields_[i].name);
      }
      break;
    }
    case Kind::kFixedArray: {
      if (!v.is_list())
        throw xbt::InvalidArgument(where + ": expected list value");
      if (v.as_list().size() != array_size_)
        throw xbt::InvalidArgument(where + ": fixed array size mismatch");
      for (size_t i = 0; i < array_size_; ++i)
        element_->check(v.as_list()[i], where + "[" + std::to_string(i) + "]");
      break;
    }
    case Kind::kDynArray: {
      if (!v.is_list())
        throw xbt::InvalidArgument(where + ": expected list value");
      size_t i = 0;
      for (const Value& e : v.as_list())
        element_->check(e, where + "[" + std::to_string(i++) + "]");
      break;
    }
    case Kind::kRef:
      if (!v.is_null())
        element_->check(v, where + "*");
      break;
  }
}

namespace {

std::map<std::string, DataDescPtr>& registry() {
  static std::map<std::string, DataDescPtr> reg = [] {
    std::map<std::string, DataDescPtr> r;
    r["int8"] = DataDesc::scalar(CType::kInt8, "int8");
    r["uint8"] = DataDesc::scalar(CType::kUInt8, "uint8");
    r["int16"] = DataDesc::scalar(CType::kInt16, "int16");
    r["uint16"] = DataDesc::scalar(CType::kUInt16, "uint16");
    r["int32"] = DataDesc::scalar(CType::kInt32, "int32");
    r["uint32"] = DataDesc::scalar(CType::kUInt32, "uint32");
    r["int64"] = DataDesc::scalar(CType::kInt64, "int64");
    r["uint64"] = DataDesc::scalar(CType::kUInt64, "uint64");
    r["long"] = DataDesc::scalar(CType::kLong, "long");
    r["ulong"] = DataDesc::scalar(CType::kULong, "ulong");
    r["float"] = DataDesc::scalar(CType::kFloat, "float");
    r["double"] = DataDesc::scalar(CType::kDouble, "double");
    r["int"] = DataDesc::scalar(CType::kInt32, "int");
    r["string"] = DataDesc::string();
    return r;
  }();
  return reg;
}

}  // namespace

DataDescPtr datadesc_by_name(const std::string& name) {
  auto& reg = registry();
  auto it = reg.find(name);
  if (it == reg.end())
    throw xbt::InvalidArgument("no datadesc named '" + name + "'");
  return it->second;
}

void datadesc_register(const std::string& name, DataDescPtr desc) {
  registry()[name] = std::move(desc);
}

}  // namespace sg::datadesc
