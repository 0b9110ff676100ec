/// XML codec: tagged-text serialization, the "maximally portable, maximally
/// expensive" comparison point of the paper's tables. Values are printed and
/// re-parsed as text; strings are entity-escaped.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "datadesc/codec.hpp"
#include "datadesc/wire.hpp"
#include "xbt/str.hpp"

namespace sg::datadesc {
namespace {

void xml_escape(const std::string& in, std::string& out) {
  for (char c : in) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
}

std::string xml_unescape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    if (in[i] != '&') {
      out += in[i];
      continue;
    }
    if (in.compare(i, 5, "&amp;") == 0) {
      out += '&';
      i += 4;
    } else if (in.compare(i, 4, "&lt;") == 0) {
      out += '<';
      i += 3;
    } else if (in.compare(i, 4, "&gt;") == 0) {
      out += '>';
      i += 3;
    } else if (in.compare(i, 6, "&quot;") == 0) {
      out += '"';
      i += 5;
    } else {
      out += '&';
    }
  }
  return out;
}

/// Minimal pull parser over the subset we emit.
class XmlParser {
public:
  explicit XmlParser(const std::string& text) : text_(text) {}

  /// Consume "<tag>"; returns false (without consuming) if the next tag is
  /// not `tag` (e.g. a closing tag).
  bool open(const std::string& tag) {
    skip_ws();
    const std::string want = "<" + tag + ">";
    if (text_.compare(pos_, want.size(), want) == 0) {
      pos_ += want.size();
      return true;
    }
    return false;
  }

  void close(const std::string& tag) {
    skip_ws();
    const std::string want = "</" + tag + ">";
    if (text_.compare(pos_, want.size(), want) != 0)
      throw xbt::InvalidArgument("xml: expected " + want + " at offset " + std::to_string(pos_));
    pos_ += want.size();
  }

  /// Text up to the next '<'.
  std::string text_content() {
    const size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '<')
      ++pos_;
    return text_.substr(start, pos_ - start);
  }

  size_t tell() const { return pos_; }
  void seek(size_t pos) { pos_ = pos; }

private:
  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == '\n' || text_[pos_] == ' ' || text_[pos_] == '\t'))
      ++pos_;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

class XmlCodec final : public Codec {
public:
  const char* name() const override { return "xml"; }

  std::vector<std::uint8_t> encode(const DataDesc& desc, const Value& v,
                                   const ArchDesc& sender) const override {
    (void)sender;  // text is architecture-independent
    std::string out;
    out.reserve(1024);
    out += "<?xml version=\"1.0\"?>\n";
    encode_node(out, desc, v);
    return {out.begin(), out.end()};
  }

  Value decode(const DataDesc& desc, const std::vector<std::uint8_t>& buf,
               const ArchDesc& receiver) const override {
    std::string text(buf.begin(), buf.end());
    const size_t hdr = text.find("?>\n");
    if (hdr == std::string::npos)
      throw xbt::InvalidArgument("xml: missing prolog");
    const std::string body = text.substr(hdr + 3);
    XmlParser p(body);
    return decode_node(p, desc, receiver);
  }

private:
  static void encode_node(std::string& out, const DataDesc& d, const Value& v) {
    switch (d.kind()) {
      case DataDesc::Kind::kScalar: {
        const CType t = d.ctype();
        out += "<s>";
        if (ctype_is_float(t))
          out += xbt::format("%.17g", v.as_float());
        else if (ctype_is_signed(t))
          out += xbt::format("%" PRId64, v.as_int());
        else
          out += xbt::format("%" PRIu64, v.as_uint());
        out += "</s>\n";
        break;
      }
      case DataDesc::Kind::kString:
        out += "<str>";
        xml_escape(v.as_string(), out);
        out += "</str>\n";
        break;
      case DataDesc::Kind::kStruct:
        check_shape(v.as_struct().size(), d.fields().size(), d.name(), "fields");
        out += "<struct>\n";
        for (size_t i = 0; i < d.fields().size(); ++i)
          encode_node(out, *d.fields()[i].desc, v.as_struct()[i].second);
        out += "</struct>\n";
        break;
      case DataDesc::Kind::kFixedArray:
      case DataDesc::Kind::kDynArray:
        if (d.kind() == DataDesc::Kind::kFixedArray)
          check_shape(v.as_list().size(), d.array_size(), d.name(), "elements");
        out += "<list>\n";
        for (const Value& e : v.as_list())
          encode_node(out, *d.element(), e);
        out += "</list>\n";
        break;
      case DataDesc::Kind::kRef:
        if (v.is_null()) {
          out += "<nil></nil>\n";
        } else {
          out += "<ref>\n";
          encode_node(out, *d.element(), v);
          out += "</ref>\n";
        }
        break;
    }
  }

  static Value decode_node(XmlParser& p, const DataDesc& d, const ArchDesc& receiver) {
    switch (d.kind()) {
      case DataDesc::Kind::kScalar: {
        if (!p.open("s"))
          throw xbt::InvalidArgument("xml: expected <s>");
        const std::string text = p.text_content();
        p.close("s");
        const CType t = d.ctype();
        if (ctype_is_float(t))
          return Value(std::strtod(text.c_str(), nullptr));
        if (ctype_is_signed(t)) {
          const std::int64_t x = std::strtoll(text.c_str(), nullptr, 10);
          check_int_fits(x, receiver.size_of(t), d.name() + " (receiver)");
          return Value(x);
        }
        const std::uint64_t x = std::strtoull(text.c_str(), nullptr, 10);
        check_uint_fits(x, receiver.size_of(t), d.name() + " (receiver)");
        return Value(x);
      }
      case DataDesc::Kind::kString: {
        if (!p.open("str"))
          throw xbt::InvalidArgument("xml: expected <str>");
        const std::string text = p.text_content();
        p.close("str");
        return Value(xml_unescape(text));
      }
      case DataDesc::Kind::kStruct: {
        if (!p.open("struct"))
          throw xbt::InvalidArgument("xml: expected <struct>");
        ValueStruct out;
        out.reserve(d.fields().size());
        for (const auto& f : d.fields())
          out.emplace_back(f.name, decode_node(p, *f.desc, receiver));
        p.close("struct");
        return Value(std::move(out));
      }
      case DataDesc::Kind::kFixedArray:
      case DataDesc::Kind::kDynArray: {
        if (!p.open("list"))
          throw xbt::InvalidArgument("xml: expected <list>");
        ValueList out;
        if (d.kind() == DataDesc::Kind::kFixedArray) {
          out.reserve(d.array_size());
          for (size_t i = 0; i < d.array_size(); ++i)
            out.push_back(decode_node(p, *d.element(), receiver));
        } else {
          // Dynamic: elements until the closing tag.
          while (true) {
            const size_t mark = p.tell();
            try {
              out.push_back(decode_node(p, *d.element(), receiver));
            } catch (const xbt::InvalidArgument&) {
              p.seek(mark);
              break;
            }
          }
        }
        p.close("list");
        return Value(std::move(out));
      }
      case DataDesc::Kind::kRef: {
        if (p.open("nil")) {
          p.close("nil");
          return Value::null();
        }
        if (!p.open("ref"))
          throw xbt::InvalidArgument("xml: expected <ref> or <nil>");
        Value v = decode_node(p, *d.element(), receiver);
        p.close("ref");
        return v;
      }
    }
    throw xbt::InvalidArgument("xml: corrupt description");
  }
};

}  // namespace

const Codec& xml_codec() {
  static XmlCodec codec;
  return codec;
}

const Codec& codec_by_name(const std::string& name) {
  for (const Codec* c : all_codecs())
    if (name == c->name())
      return *c;
  throw xbt::InvalidArgument("no codec named '" + name + "'");
}

std::vector<const Codec*> all_codecs() {
  return {&ndr_codec(), &xdr_codec(), &cdr_codec(), &pbio_codec(), &xml_codec()};
}

}  // namespace sg::datadesc
