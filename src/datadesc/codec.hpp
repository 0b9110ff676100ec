/// \file codec.hpp
/// Wire codecs. Each implements the on-the-wire strategy of one of the
/// systems compared in the paper's GRAS tables:
///
///  * "gras"    — NDR / receiver-makes-right: sender emits its native layout
///                 (byte order, type widths, alignment) prefixed by its
///                 architecture id; the receiver converts only on mismatch.
///  * "mpich"   — XDR-style canonical representation: everything big-endian
///                 padded to 4/8-byte units; both sides always convert.
///  * "omniorb" — CDR: fixed CORBA widths, sender endianness + flag byte,
///                 receiver swaps when flags differ.
///  * "pbio"    — self-describing binary: a metadata section describing the
///                 format precedes natively-laid-out data; the receiver
///                 checks the metadata against the format it expects.
///  * "xml"     — tagged text; maximal portability, maximal cost.
///
/// The four binary codecs are one walker (binary.cpp) over the flat plan each
/// DataDesc compiles at construction (plan.hpp), driven by a per-codec rules
/// row: layout and header, string framing, count alignment, ref-marker width,
/// metadata. XML keeps its own recursive walker over the description tree.
#pragma once

#include <cstdint>
#include <vector>

#include "datadesc/datadesc.hpp"

namespace sg::datadesc {

class Codec {
public:
  virtual ~Codec() = default;
  virtual const char* name() const = 0;

  /// Serialize `v` as emitted by a host of architecture `sender`. Throws
  /// xbt::InvalidArgument, naming the description, when a struct's field
  /// count or a fixed array's length differs from `desc`, and when a value
  /// does not fit its wire width.
  virtual std::vector<std::uint8_t> encode(const DataDesc& desc, const Value& v,
                                           const ArchDesc& sender) const = 0;

  /// Deserialize on a host of architecture `receiver`. Throws
  /// xbt::InvalidArgument on malformed input or unrepresentable values
  /// (e.g. a 64-bit long received by a 32-bit architecture).
  virtual Value decode(const DataDesc& desc, const std::vector<std::uint8_t>& buf,
                       const ArchDesc& receiver) const = 0;
};

const Codec& ndr_codec();    ///< "gras"
const Codec& xdr_codec();    ///< "mpich"
const Codec& cdr_codec();    ///< "omniorb"
const Codec& pbio_codec();   ///< "pbio"
const Codec& xml_codec();    ///< "xml"

const Codec& codec_by_name(const std::string& name);
std::vector<const Codec*> all_codecs();

}  // namespace sg::datadesc
