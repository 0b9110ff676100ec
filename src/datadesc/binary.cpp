/// The four binary codecs of the paper's tables as one plan walker with a
/// rules table. Every codec runs the same encode and decode loop over the
/// description's compiled plan (plan.hpp); they differ only in their
/// WireRules row, which says how the wire is laid out:
///
///  * "gras"    — NDR, receiver makes right: the sender's native layout
///                 (widths, alignment, byte order) behind its architecture
///                 id; the receiver converts only what differs.
///  * "mpich"   — XDR: a canonical big-endian form in 4/8-byte units; both
///                 sides always convert.
///  * "omniorb" — CDR: fixed IDL widths (a long is 4 bytes), natural
///                 alignment, the sender's byte order announced by a flag
///                 byte; strings count and carry their NUL.
///  * "pbio"    — NDR's data behind a self-describing metadata section (real
///                 PBIO caches formats per peer; shipping them per message
///                 models its format-negotiation overhead).
#include "datadesc/codec.hpp"
#include "datadesc/plan.hpp"
#include "datadesc/wire.hpp"

namespace sg::datadesc {
namespace {

constexpr int kNumCTypes = static_cast<int>(CType::kCount_);

/// Where scalar widths, alignment and byte order come from; it also fixes the
/// header byte that tells the receiver which layout the data uses.
enum class Layout : std::uint8_t {
  kSenderNative,  ///< the sender's ArchDesc; header = its architecture id
  kXdr,           ///< canonical big-endian 4/8-byte units, no alignment, no header
  kIdl,           ///< IDL widths, natural alignment, sender byte order; header = endian flag
};

struct WireRules {
  const char* name;
  Layout layout;
  bool string_counts_nul;    ///< the length word counts a trailing NUL, which is sent
  bool string_pad4;          ///< string bytes are padded to a 4-byte boundary
  std::uint8_t count_align;  ///< alignment of string lengths and dyn-array counts
  std::uint8_t ref_width;    ///< bytes of a ref's present/absent marker
  bool self_describing;      ///< the plan's metadata precedes the data
};

constexpr WireRules kNdrRules{"gras", Layout::kSenderNative, false, false, 4, 1, false};
constexpr WireRules kXdrRules{"mpich", Layout::kXdr, false, true, 1, 4, false};
constexpr WireRules kCdrRules{"omniorb", Layout::kIdl, true, false, 4, 1, false};
constexpr WireRules kPbioRules{"pbio", Layout::kSenderNative, false, false, 4, 1, true};

/// A fixed wire layout expressed as an architecture description.
ArchDesc fixed_layout(bool big_endian, const std::uint8_t (&sizes)[kNumCTypes], bool aligned) {
  ArchDesc a;
  a.big_endian = big_endian;
  for (int i = 0; i < kNumCTypes; ++i) {
    a.sizes[i] = sizes[i];
    a.aligns[i] = aligned ? sizes[i] : 1;
  }
  return a;
}

//                                  i8 u8 i16 u16 i32 u32 i64 u64 long ulong float double
constexpr std::uint8_t kXdrSizes[] = {4, 4, 4, 4, 4, 4, 8, 8, 8, 8, 4, 8};  // long as hyper
constexpr std::uint8_t kIdlSizes[] = {1, 1, 2, 2, 4, 4, 8, 8, 4, 4, 4, 8};  // IDL long is 32-bit

const ArchDesc& xdr_layout() {
  static const ArchDesc layout = fixed_layout(true, kXdrSizes, false);
  return layout;
}

const ArchDesc& idl_layout(bool big_endian) {
  static const ArchDesc be = fixed_layout(true, kIdlSizes, true);
  static const ArchDesc le = fixed_layout(false, kIdlSizes, true);
  return big_endian ? be : le;
}

/// Encoder state: one walk of `ops` writing `v`'s bytes laid out as `wire`.
class Encoder {
public:
  Encoder(const PlanOp* ops, const ArchDesc& wire, const WireRules& rules, WireWriter& w)
      : ops_(ops), wire_(wire), rules_(rules), w_(w) {}

  void node(size_t i, const Value& v) {
    const PlanOp& op = ops_[i];
    switch (op.kind) {
      case DataDesc::Kind::kScalar:
        scalar(op, v);
        break;
      case DataDesc::Kind::kString: {
        const std::string& s = v.as_string();
        w_.align(rules_.count_align);
        w_.put_bits(s.size() + (rules_.string_counts_nul ? 1 : 0), 4, wire_.big_endian);
        w_.put_bytes(s.data(), s.size());
        if (rules_.string_counts_nul)
          w_.put_u8(0);
        if (rules_.string_pad4)
          w_.align(4);
        break;
      }
      case DataDesc::Kind::kStruct: {
        const ValueStruct& fields = v.as_struct();
        check_shape(fields.size(), op.count, *op.name, "fields");
        size_t child = i + 1;
        for (const auto& f : fields) {
          node(child, f.second);
          child += ops_[child].span;
        }
        break;
      }
      case DataDesc::Kind::kFixedArray: {
        const ValueList& elements = v.as_list();
        check_shape(elements.size(), op.count, *op.name, "elements");
        for (const Value& e : elements)
          node(i + 1, e);
        break;
      }
      case DataDesc::Kind::kDynArray: {
        const ValueList& elements = v.as_list();
        w_.align(rules_.count_align);
        w_.put_bits(elements.size(), 4, wire_.big_endian);
        for (const Value& e : elements)
          node(i + 1, e);
        break;
      }
      case DataDesc::Kind::kRef:
        w_.put_bits(v.is_null() ? 0 : 1, rules_.ref_width, wire_.big_endian);
        if (!v.is_null())
          node(i + 1, v);
        break;
    }
  }

private:
  void scalar(const PlanOp& op, const Value& v) {
    const CType t = op.ctype;
    const int size = wire_.size_of(t);
    w_.align(wire_.align_of(t));
    std::uint64_t bits;
    if (ctype_is_float(t)) {
      bits = float_to_bits(v.as_float(), size == 4);
    } else if (ctype_is_signed(t)) {
      const std::int64_t x = v.as_int();
      if (!int_fits(x, size))
        throw_does_not_fit(*op.name, std::to_string(x), size);
      bits = static_cast<std::uint64_t>(x);
    } else {
      bits = v.as_uint();
      if (!uint_fits(bits, size))
        throw_does_not_fit(*op.name, std::to_string(bits), size);
    }
    w_.put_bits(bits, size, wire_.big_endian);
  }

  const PlanOp* ops_;
  const ArchDesc& wire_;
  const WireRules& rules_;
  WireWriter& w_;
};

/// Decoder state: one walk of `ops` reading data laid out as `wire` into
/// values a `receiver` host can represent.
class Decoder {
public:
  Decoder(const PlanOp* ops, const ArchDesc& wire, const WireRules& rules, const ArchDesc& receiver,
          WireReader& r)
      : ops_(ops), wire_(wire), rules_(rules), receiver_(receiver), r_(r) {}

  Value node(size_t i) {
    const PlanOp& op = ops_[i];
    switch (op.kind) {
      case DataDesc::Kind::kScalar:
        return scalar(op);
      case DataDesc::Kind::kString: {
        r_.align(rules_.count_align);
        auto len = static_cast<size_t>(r_.get_bits(4, wire_.big_endian));
        if (rules_.string_counts_nul) {
          if (len == 0)
            throw xbt::InvalidArgument("cdr: zero-length string (missing NUL)");
          --len;
        }
        std::string s(r_.take(len), len);
        if (rules_.string_counts_nul)
          r_.skip(1);
        if (rules_.string_pad4)
          r_.align(4);
        return Value(std::move(s));
      }
      case DataDesc::Kind::kStruct: {
        ValueStruct out;
        out.reserve(op.count);
        size_t child = i + 1;
        for (size_t k = 0; k < op.count; ++k) {
          out.emplace_back(*ops_[child].field, node(child));
          child += ops_[child].span;
        }
        return Value(std::move(out));
      }
      case DataDesc::Kind::kFixedArray: {
        ValueList out;
        out.reserve(op.count);
        for (size_t k = 0; k < op.count; ++k)
          out.push_back(node(i + 1));
        return Value(std::move(out));
      }
      case DataDesc::Kind::kDynArray: {
        r_.align(rules_.count_align);
        const auto n = static_cast<size_t>(r_.get_bits(4, wire_.big_endian));
        ValueList out;
        out.reserve(std::min(n, r_.remaining()));  // n comes off the wire
        for (size_t k = 0; k < n; ++k)
          out.push_back(node(i + 1));
        return Value(std::move(out));
      }
      case DataDesc::Kind::kRef:
        if (r_.get_bits(rules_.ref_width, wire_.big_endian) == 0)
          return Value::null();
        return node(i + 1);
    }
    throw xbt::InvalidArgument(std::string(rules_.name) + ": corrupt description");
  }

private:
  Value scalar(const PlanOp& op) {
    const CType t = op.ctype;
    const int size = wire_.size_of(t);
    r_.align(wire_.align_of(t));
    const std::uint64_t bits = r_.get_bits(size, wire_.big_endian);
    if (ctype_is_float(t))
      return Value(bits_to_float(bits, size == 4));
    // The receiver must be able to hold the value in its own C type.
    const int receiver_size = receiver_.size_of(t);
    if (ctype_is_signed(t)) {
      const std::int64_t x = sign_extend(bits, size);
      if (!int_fits(x, receiver_size))
        throw_does_not_fit(*op.name + " (receiver)", std::to_string(x), receiver_size);
      return Value(x);
    }
    if (!uint_fits(bits, receiver_size))
      throw_does_not_fit(*op.name + " (receiver)", std::to_string(bits), receiver_size);
    return Value(bits);
  }

  const PlanOp* ops_;
  const ArchDesc& wire_;
  const WireRules& rules_;
  const ArchDesc& receiver_;
  WireReader& r_;
};

/// Parse incoming PBIO metadata and verify it structurally matches what the
/// receiver expects (PBIO's format-compatibility check). Node names may
/// differ; field names, kinds, scalar types and counts may not.
void check_meta(WireReader& r, const DataDesc& d) {
  const auto kind = static_cast<DataDesc::Kind>(r.get_u8());
  const auto ctype = static_cast<CType>(r.get_u8());
  r.skip(static_cast<size_t>(r.get_bits(2, true)));  // the sender's node name
  if (kind != d.kind())
    throw xbt::InvalidArgument("pbio: format mismatch at '" + d.name() + "'");
  switch (kind) {
    case DataDesc::Kind::kScalar:
      if (ctype != d.ctype())
        throw xbt::InvalidArgument("pbio: scalar type mismatch at '" + d.name() + "'");
      break;
    case DataDesc::Kind::kStruct: {
      const auto n = static_cast<size_t>(r.get_bits(2, true));
      if (n != d.fields().size())
        throw xbt::InvalidArgument("pbio: field count mismatch at '" + d.name() + "'");
      for (const auto& f : d.fields()) {
        const auto fn_len = static_cast<size_t>(r.get_bits(2, true));
        const std::string fn(r.take(fn_len), fn_len);
        if (fn != f.name)
          throw xbt::InvalidArgument("pbio: field name mismatch: got '" + fn + "', want '" +
                                     f.name + "'");
        check_meta(r, *f.desc);
      }
      break;
    }
    case DataDesc::Kind::kFixedArray: {
      const auto n = static_cast<size_t>(r.get_bits(4, true));
      if (n != d.array_size())
        throw xbt::InvalidArgument("pbio: array size mismatch at '" + d.name() + "'");
      check_meta(r, *d.element());
      break;
    }
    case DataDesc::Kind::kDynArray:
    case DataDesc::Kind::kRef:
      check_meta(r, *d.element());
      break;
    default:
      break;
  }
}

class PlanCodec final : public Codec {
public:
  explicit PlanCodec(const WireRules& rules) : rules_(rules) {}

  const char* name() const override { return rules_.name; }

  std::vector<std::uint8_t> encode(const DataDesc& desc, const Value& v,
                                   const ArchDesc& sender) const override {
    const Plan& plan = desc.plan();
    WireWriter w(1 + (rules_.self_describing ? plan.meta.size() : 0) + plan.fixed_bytes);
    const ArchDesc* wire = &sender;
    switch (rules_.layout) {
      case Layout::kSenderNative:
        w.put_u8(static_cast<std::uint8_t>(sender.id));
        break;
      case Layout::kXdr:
        wire = &xdr_layout();
        break;
      case Layout::kIdl:
        w.put_u8(sender.big_endian ? 0 : 1);  // CDR: 1 = little-endian
        wire = &idl_layout(sender.big_endian);
        break;
    }
    if (rules_.self_describing)
      w.put_bytes(plan.meta.data(), plan.meta.size());
    Encoder(plan.ops.data(), *wire, rules_, w).node(0, v);
    return w.take();
  }

  Value decode(const DataDesc& desc, const std::vector<std::uint8_t>& buf,
               const ArchDesc& receiver) const override {
    const Plan& plan = desc.plan();
    WireReader r(buf);
    const ArchDesc* wire = nullptr;
    switch (rules_.layout) {
      case Layout::kSenderNative:
        wire = &arch_by_id(r.get_u8());
        break;
      case Layout::kXdr:
        wire = &xdr_layout();
        break;
      case Layout::kIdl:
        wire = &idl_layout(r.get_u8() == 0);
        break;
    }
    // Byte-identical metadata is the common case; only a mismatch pays for
    // the structural comparison (which also accepts renamed nodes).
    if (rules_.self_describing && !r.skip_if_equal(plan.meta))
      check_meta(r, desc);
    return Decoder(plan.ops.data(), *wire, rules_, receiver, r).node(0);
  }

private:
  const WireRules& rules_;
};

}  // namespace

const Codec& ndr_codec() {
  static const PlanCodec codec(kNdrRules);
  return codec;
}

const Codec& xdr_codec() {
  static const PlanCodec codec(kXdrRules);
  return codec;
}

const Codec& cdr_codec() {
  static const PlanCodec codec(kCdrRules);
  return codec;
}

const Codec& pbio_codec() {
  static const PlanCodec codec(kPbioRules);
  return codec;
}

}  // namespace sg::datadesc
