/// Tests for cross-architecture data description & the five wire codecs.
/// The core guarantee: any described value round-trips bit-exactly through
/// any codec between any pair of architectures (when representable on the
/// receiver).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>

#include "datadesc/codec.hpp"
#include "datadesc/pastry.hpp"
#include "datadesc/wire.hpp"
#include "xbt/exception.hpp"
#include "xbt/random.hpp"

namespace {

using namespace sg::datadesc;

// -- architecture table -----------------------------------------------------------

TEST(Arch, TableSanity) {
  EXPECT_GE(arch_table().size(), 6u);
  EXPECT_EQ(arch_by_name("x86").big_endian, false);
  EXPECT_EQ(arch_by_name("sparc").big_endian, true);
  EXPECT_EQ(arch_by_name("ppc").big_endian, true);
  EXPECT_EQ(arch_by_name("x86").size_of(CType::kLong), 4);
  EXPECT_EQ(arch_by_name("amd64").size_of(CType::kLong), 8);
  // classic ia32 ABI: 8-byte scalars aligned on 4
  EXPECT_EQ(arch_by_name("x86").align_of(CType::kDouble), 4);
  EXPECT_EQ(arch_by_name("sparc").align_of(CType::kDouble), 8);
  EXPECT_THROW(arch_by_name("vax"), sg::xbt::InvalidArgument);
  EXPECT_THROW(arch_by_id(99), sg::xbt::InvalidArgument);
}

TEST(Arch, StableIds) {
  // Wire compatibility depends on these ids never changing.
  EXPECT_EQ(arch_by_name("x86").id, 0);
  EXPECT_EQ(arch_by_name("sparc").id, 1);
  EXPECT_EQ(arch_by_name("ppc").id, 2);
  EXPECT_EQ(arch_by_name("amd64").id, 3);
}

// -- value model ------------------------------------------------------------------

TEST(Value, AccessorsAndEquality) {
  Value v(int64_t{-5});
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.as_int(), -5);
  EXPECT_THROW(v.as_string(), sg::xbt::InvalidArgument);

  Value s(ValueStruct{{"a", Value(1)}, {"b", Value("x")}});
  EXPECT_EQ(s.field("b").as_string(), "x");
  EXPECT_THROW(s.field("zz"), sg::xbt::InvalidArgument);
  EXPECT_EQ(s, Value(ValueStruct{{"a", Value(1)}, {"b", Value("x")}}));
  EXPECT_TRUE(Value::null().is_null());
}

TEST(Value, ToStringRendering) {
  Value v(ValueStruct{{"n", Value(3)}, {"l", Value(ValueList{Value(1.5), Value("s")})}});
  EXPECT_EQ(v.to_string(), "{n: 3, l: [1.5, \"s\"]}");
}

// -- datadesc validation ------------------------------------------------------------

TEST(DataDesc, CheckAcceptsMatching) {
  auto desc = DataDesc::struct_("pair", {{"x", datadesc_by_name("int")},
                                         {"y", datadesc_by_name("double")}});
  EXPECT_NO_THROW(desc->check(Value(ValueStruct{{"x", Value(1)}, {"y", Value(2.0)}})));
}

TEST(DataDesc, CheckRejectsMismatch) {
  auto desc = DataDesc::struct_("pair", {{"x", datadesc_by_name("int")}});
  EXPECT_THROW(desc->check(Value(1)), sg::xbt::InvalidArgument);
  EXPECT_THROW(desc->check(Value(ValueStruct{{"y", Value(1)}})), sg::xbt::InvalidArgument);
  EXPECT_THROW(desc->check(Value(ValueStruct{{"x", Value("nope")}})), sg::xbt::InvalidArgument);
  auto arr = DataDesc::fixed_array(datadesc_by_name("int"), 3);
  EXPECT_THROW(arr->check(Value(ValueList{Value(1)})), sg::xbt::InvalidArgument);
}

TEST(DataDesc, Registry) {
  EXPECT_NO_THROW(datadesc_by_name("uint16"));
  EXPECT_THROW(datadesc_by_name("no-such-type"), sg::xbt::InvalidArgument);
  datadesc_register("my_pair", DataDesc::struct_("my_pair", {{"a", datadesc_by_name("int")}}));
  EXPECT_NO_THROW(datadesc_by_name("my_pair"));
}

// -- round-trip matrix --------------------------------------------------------------

/// A description exercising every DataDesc kind and tricky scalar layouts.
DataDescPtr kitchen_sink_desc() {
  static const DataDescPtr desc = DataDesc::struct_(
      "sink",
      {
          {"i8", DataDesc::scalar(CType::kInt8, "i8")},
          {"u8", DataDesc::scalar(CType::kUInt8, "u8")},
          {"i16", DataDesc::scalar(CType::kInt16, "i16")},
          {"i32", DataDesc::scalar(CType::kInt32, "i32")},
          {"u32", DataDesc::scalar(CType::kUInt32, "u32")},
          {"i64", DataDesc::scalar(CType::kInt64, "i64")},
          {"lng", DataDesc::scalar(CType::kLong, "lng")},
          {"f32", DataDesc::scalar(CType::kFloat, "f32")},
          {"f64", DataDesc::scalar(CType::kDouble, "f64")},
          {"str", DataDesc::string("str")},
          {"arr", DataDesc::fixed_array(DataDesc::scalar(CType::kInt16, "e"), 3, "arr")},
          {"dyn", DataDesc::dyn_array(DataDesc::scalar(CType::kInt32, "d"), "dyn")},
          {"ref", DataDesc::ref(DataDesc::scalar(CType::kInt32, "p"), "ref")},
          {"nested", DataDesc::struct_("inner", {{"a", DataDesc::scalar(CType::kUInt16, "a")},
                                                 {"b", DataDesc::string("b")}})},
      });
  return desc;
}

Value kitchen_sink_value(bool null_ref) {
  return Value(ValueStruct{
      {"i8", Value(int64_t{-100})},
      {"u8", Value(uint64_t{200})},
      {"i16", Value(int64_t{-30000})},
      {"i32", Value(int64_t{-2000000000})},
      {"u32", Value(uint64_t{4000000000u})},
      {"i64", Value(int64_t{-9000000000000000000LL})},
      {"lng", Value(int64_t{-2000000000})},  // fits a 32-bit long
      {"f32", Value(0.5)},                   // exactly representable in binary32
      {"f64", Value(3.141592653589793)},
      {"str", Value(std::string("héllo <&> \"world\""))},
      {"arr", Value(ValueList{Value(1), Value(-2), Value(3)})},
      {"dyn", Value(ValueList{Value(10), Value(20), Value(30), Value(40)})},
      {"ref", null_ref ? Value::null() : Value(int64_t{77})},
      {"nested", Value(ValueStruct{{"a", Value(uint64_t{65535})}, {"b", Value("inner")}})},
  });
}

struct RoundTripCase {
  const char* codec;
  const char* sender;
  const char* receiver;
};

void PrintTo(const RoundTripCase& c, std::ostream* os) {
  *os << c.codec << ":" << c.sender << "->" << c.receiver;
}

class CodecRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(CodecRoundTrip, KitchenSink) {
  const auto p = GetParam();
  const Codec& codec = codec_by_name(p.codec);
  const ArchDesc& snd = arch_by_name(p.sender);
  const ArchDesc& rcv = arch_by_name(p.receiver);
  for (bool null_ref : {false, true}) {
    const Value original = kitchen_sink_value(null_ref);
    const auto wire = codec.encode(*kitchen_sink_desc(), original, snd);
    const Value decoded = codec.decode(*kitchen_sink_desc(), wire, rcv);
    EXPECT_EQ(decoded, original) << "wire size " << wire.size() << "\n got: " << decoded.to_string()
                                 << "\nwant: " << original.to_string();
  }
}

TEST_P(CodecRoundTrip, PastryMessage) {
  const auto p = GetParam();
  const Codec& codec = codec_by_name(p.codec);
  sg::xbt::Rng rng(2006);
  const Value msg = make_pastry_message(rng, 512);
  pastry_message_desc()->check(msg);
  const auto wire = codec.encode(*pastry_message_desc(), msg, arch_by_name(p.sender));
  const Value decoded = codec.decode(*pastry_message_desc(), wire, arch_by_name(p.receiver));
  EXPECT_EQ(decoded, msg);
}

std::vector<RoundTripCase> all_cases() {
  std::vector<RoundTripCase> cases;
  for (const char* codec : {"gras", "mpich", "omniorb", "pbio", "xml"})
    for (const char* snd : {"x86", "sparc", "ppc", "amd64"})
      for (const char* rcv : {"x86", "sparc", "ppc", "amd64"})
        cases.push_back({codec, snd, rcv});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllArchPairs, CodecRoundTrip, ::testing::ValuesIn(all_cases()),
                         [](const ::testing::TestParamInfo<RoundTripCase>& info) {
                           return std::string(info.param.codec) + "_" + info.param.sender + "_to_" +
                                  info.param.receiver;
                         });

// -- golden wire format ---------------------------------------------------------------

/// 64-bit FNV-1a of an encoded buffer.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

struct GoldenWire {
  const char* value;  ///< "sink_ref", "sink_null" or "pastry"
  const char* codec;
  const char* sender;
  size_t size;
  std::uint64_t hash;
};

/// Pins the exact bytes every binary codec emits for each sender layout, so
/// a change to the encoders cannot alter the wire format unnoticed.
TEST(WireGolden, BinaryCodecsEmitPinnedBytes) {
  static const GoldenWire kGolden[] = {
      {"sink_ref", "gras", "x86", 109, 0x59657922a505f173ULL},
      {"sink_ref", "gras", "sparc", 109, 0x33588b29329acd24ULL},
      {"sink_ref", "gras", "ppc", 109, 0x0a51b8f260f5cb75ULL},
      {"sink_ref", "gras", "amd64", 117, 0x20f5521eb3be370aULL},
      {"sink_ref", "mpich", "x86", 128, 0xc6d188e56f1fa946ULL},
      {"sink_ref", "mpich", "sparc", 128, 0xc6d188e56f1fa946ULL},
      {"sink_ref", "mpich", "ppc", 128, 0xc6d188e56f1fa946ULL},
      {"sink_ref", "mpich", "amd64", 128, 0xc6d188e56f1fa946ULL},
      {"sink_ref", "omniorb", "x86", 114, 0xe19284b4bafe4132ULL},
      {"sink_ref", "omniorb", "sparc", 114, 0xe15a563817a05623ULL},
      {"sink_ref", "omniorb", "ppc", 114, 0xe15a563817a05623ULL},
      {"sink_ref", "omniorb", "amd64", 114, 0xe19284b4bafe4132ULL},
      {"sink_ref", "pbio", "x86", 325, 0x215108932c037a81ULL},
      {"sink_ref", "pbio", "sparc", 325, 0x7cc4d22248a6037aULL},
      {"sink_ref", "pbio", "ppc", 325, 0x9aa5e6525dc105e7ULL},
      {"sink_ref", "pbio", "amd64", 333, 0x8604328bd6eca5b4ULL},
      {"sink_null", "gras", "x86", 101, 0x9b791bcc38c4571fULL},
      {"sink_null", "gras", "sparc", 101, 0x61244a0ae4e254c6ULL},
      {"sink_null", "gras", "ppc", 101, 0x83fa79c1430cd2b3ULL},
      {"sink_null", "gras", "amd64", 109, 0x6a7fe5a19c2d434eULL},
      {"sink_null", "mpich", "x86", 124, 0xef64c680c6195aeaULL},
      {"sink_null", "mpich", "sparc", 124, 0xef64c680c6195aeaULL},
      {"sink_null", "mpich", "ppc", 124, 0xef64c680c6195aeaULL},
      {"sink_null", "mpich", "amd64", 124, 0xef64c680c6195aeaULL},
      {"sink_null", "omniorb", "x86", 106, 0xd7367f17dbcaab0eULL},
      {"sink_null", "omniorb", "sparc", 106, 0xf1857ea576defd85ULL},
      {"sink_null", "omniorb", "ppc", 106, 0xf1857ea576defd85ULL},
      {"sink_null", "omniorb", "amd64", 106, 0xd7367f17dbcaab0eULL},
      {"sink_null", "pbio", "x86", 317, 0xd7068b8f3c30a94dULL},
      {"sink_null", "pbio", "sparc", 317, 0x1e33f62dd7ed5abcULL},
      {"sink_null", "pbio", "ppc", 317, 0xbba7c3775a5eef7dULL},
      {"sink_null", "pbio", "amd64", 325, 0xadfa95392fb2ec88ULL},
      {"pastry", "gras", "x86", 1373, 0xcab1f91cf757141eULL},
      {"pastry", "gras", "sparc", 1377, 0x6fccc17a4e76e84bULL},
      {"pastry", "gras", "ppc", 1377, 0x8dc840e7ff7ca85eULL},
      {"pastry", "gras", "amd64", 1377, 0x855eeb67fab525a7ULL},
      {"pastry", "mpich", "x86", 1376, 0x54b8a906fb97042cULL},
      {"pastry", "mpich", "sparc", 1376, 0x54b8a906fb97042cULL},
      {"pastry", "mpich", "ppc", 1376, 0x54b8a906fb97042cULL},
      {"pastry", "mpich", "amd64", 1376, 0x54b8a906fb97042cULL},
      {"pastry", "omniorb", "x86", 1378, 0x0305b2ad65c63d5eULL},
      {"pastry", "omniorb", "sparc", 1378, 0x86ed223606ed97bbULL},
      {"pastry", "omniorb", "ppc", 1378, 0x86ed223606ed97bbULL},
      {"pastry", "omniorb", "amd64", 1378, 0x0305b2ad65c63d5eULL},
      {"pastry", "pbio", "x86", 2073, 0x285373badc6044dbULL},
      {"pastry", "pbio", "sparc", 2073, 0x2c3db7f72b44a3aaULL},
      {"pastry", "pbio", "ppc", 2073, 0x39db215631739b63ULL},
      {"pastry", "pbio", "amd64", 2081, 0x4843a4436cf94576ULL},
  };
  sg::xbt::Rng rng(2006);
  const Value pastry = make_pastry_message(rng, 256);
  for (const GoldenWire& g : kGolden) {
    const std::string value = g.value;
    const bool sink = value != "pastry";
    const DataDesc& desc = sink ? *kitchen_sink_desc() : *pastry_message_desc();
    const Value v = sink ? kitchen_sink_value(value == "sink_null") : pastry;
    const auto wire = codec_by_name(g.codec).encode(desc, v, arch_by_name(g.sender));
    EXPECT_EQ(wire.size(), g.size) << g.value << " " << g.codec << " from " << g.sender;
    EXPECT_EQ(fnv1a(wire), g.hash) << g.value << " " << g.codec << " from " << g.sender;
  }
}

// -- codec specifics -----------------------------------------------------------------

TEST(Ndr, SameArchIsSmallerThanXdrForNarrowTypes) {
  // NDR keeps an int16 at 2 bytes; XDR inflates it to 4.
  auto desc = DataDesc::fixed_array(DataDesc::scalar(CType::kInt16, "v"), 64);
  ValueList vals;
  for (int i = 0; i < 64; ++i)
    vals.emplace_back(i);
  const Value v{ValueList(vals)};
  const auto ndr = ndr_codec().encode(*desc, v, arch_by_name("x86"));
  const auto xdr = xdr_codec().encode(*desc, v, arch_by_name("x86"));
  EXPECT_LT(ndr.size(), xdr.size());
}

TEST(Ndr, CarriesSenderArchId) {
  auto desc = datadesc_by_name("int");
  const auto wire = ndr_codec().encode(*desc, Value(1), arch_by_name("sparc"));
  EXPECT_EQ(wire[0], arch_by_name("sparc").id);
}

TEST(Ndr, LongWidthFollowsSenderArch) {
  auto desc = datadesc_by_name("long");
  const auto wire32 = ndr_codec().encode(*desc, Value(1), arch_by_name("x86"));
  const auto wire64 = ndr_codec().encode(*desc, Value(1), arch_by_name("amd64"));
  EXPECT_EQ(wire32.size(), 1u + 4u + 3u);  // arch byte + aligned(4) int32... padding
  EXPECT_GT(wire64.size(), wire32.size());
}

TEST(Ndr, ReceiverCannotRepresentWideLong) {
  // A 64-bit long from amd64 that exceeds 32 bits must be rejected by an
  // ILP32 receiver (receiver-makes-right failure mode).
  auto desc = datadesc_by_name("long");
  const Value big(int64_t{1} << 40);
  const auto wire = ndr_codec().encode(*desc, big, arch_by_name("amd64"));
  EXPECT_NO_THROW(ndr_codec().decode(*desc, wire, arch_by_name("amd64")));
  EXPECT_THROW(ndr_codec().decode(*desc, wire, arch_by_name("x86")), sg::xbt::InvalidArgument);
}

TEST(Ndr, ValueTooWideForSenderRejected) {
  auto desc = datadesc_by_name("long");
  EXPECT_THROW(ndr_codec().encode(*desc, Value(int64_t{1} << 40), arch_by_name("x86")),
               sg::xbt::InvalidArgument);
}

TEST(Xdr, CanonicalFormIsArchIndependent) {
  auto desc = pastry_message_desc();
  sg::xbt::Rng rng(7);
  const Value msg = make_pastry_message(rng, 64);
  const auto a = xdr_codec().encode(*desc, msg, arch_by_name("x86"));
  const auto b = xdr_codec().encode(*desc, msg, arch_by_name("sparc"));
  EXPECT_EQ(a, b);  // sender layout does not leak into XDR
}

TEST(Cdr, EndianFlagHonored) {
  auto desc = datadesc_by_name("int");
  const auto le = cdr_codec().encode(*desc, Value(0x01020304), arch_by_name("x86"));
  const auto be = cdr_codec().encode(*desc, Value(0x01020304), arch_by_name("sparc"));
  EXPECT_NE(le, be);
  EXPECT_EQ(cdr_codec().decode(*desc, le, arch_by_name("sparc")).as_int(), 0x01020304);
  EXPECT_EQ(cdr_codec().decode(*desc, be, arch_by_name("x86")).as_int(), 0x01020304);
}

TEST(Pbio, DetectsFormatMismatch) {
  auto desc_a = DataDesc::struct_("m", {{"x", datadesc_by_name("int")}});
  auto desc_b = DataDesc::struct_("m", {{"y", datadesc_by_name("int")}});
  const auto wire = pbio_codec().encode(*desc_a, Value(ValueStruct{{"x", Value(1)}}),
                                        arch_by_name("x86"));
  EXPECT_THROW(pbio_codec().decode(*desc_b, wire, arch_by_name("x86")), sg::xbt::InvalidArgument);
}

/// The message of the first error a decode throws.
std::string decode_error(const Codec& codec, const DataDesc& desc,
                         const std::vector<std::uint8_t>& wire, const char* receiver) {
  try {
    (void)codec.decode(desc, wire, arch_by_name(receiver));
  } catch (const sg::xbt::InvalidArgument& e) {
    return e.what();
  }
  return "no error";
}

TEST(Pbio, FieldNameMismatchMessage) {
  auto desc_a = DataDesc::struct_("m", {{"x", datadesc_by_name("int")}});
  auto desc_b = DataDesc::struct_("m", {{"y", datadesc_by_name("int")}});
  const auto wire = pbio_codec().encode(*desc_a, Value(ValueStruct{{"x", Value(1)}}),
                                        arch_by_name("x86"));
  EXPECT_EQ(decode_error(pbio_codec(), *desc_b, wire, "x86"),
            "pbio: field name mismatch: got 'x', want 'y'");
}

TEST(Pbio, AcceptsDescriptionDifferingOnlyInNodeNames) {
  // Same fields, kinds and types; only the struct's and the scalar's own
  // names differ, so the metadata bytes differ but the format is compatible.
  auto sent = DataDesc::struct_("msg_v1", {{"x", DataDesc::scalar(CType::kInt32, "count")},
                                           {"s", DataDesc::string("text")}});
  auto expected = DataDesc::struct_("msg_v2", {{"x", DataDesc::scalar(CType::kInt32, "n")},
                                               {"s", DataDesc::string("label")}});
  const Value v(ValueStruct{{"x", Value(-42)}, {"s", Value("hello")}});
  for (const char* snd : {"x86", "sparc"}) {
    const auto wire = pbio_codec().encode(*sent, v, arch_by_name(snd));
    EXPECT_EQ(pbio_codec().decode(*expected, wire, arch_by_name("amd64")), v) << snd;
  }
}

TEST(Xml, EscapesMarkup) {
  auto desc = datadesc_by_name("string");
  const Value v(std::string("a<b>&c\"d"));
  const auto wire = xml_codec().encode(*desc, v, arch_by_name("x86"));
  const std::string text(wire.begin(), wire.end());
  EXPECT_EQ(text.find("a<b>"), std::string::npos);  // must be escaped
  EXPECT_EQ(xml_codec().decode(*desc, wire, arch_by_name("sparc")).as_string(), "a<b>&c\"d");
}

TEST(Xml, IsLargestEncoding) {
  auto desc = pastry_message_desc();
  sg::xbt::Rng rng(11);
  const Value msg = make_pastry_message(rng, 128);
  const auto& x86 = arch_by_name("x86");
  const size_t ndr = ndr_codec().encode(*desc, msg, x86).size();
  const size_t xml = xml_codec().encode(*desc, msg, x86).size();
  EXPECT_GT(xml, 2 * ndr);
}

TEST(Codecs, TruncatedBuffersRejected) {
  auto desc = pastry_message_desc();
  sg::xbt::Rng rng(3);
  const Value msg = make_pastry_message(rng, 64);
  for (const Codec* codec : all_codecs()) {
    auto wire = codec->encode(*desc, msg, arch_by_name("x86"));
    wire.resize(wire.size() / 2);
    EXPECT_THROW(codec->decode(*desc, wire, arch_by_name("x86")), sg::xbt::InvalidArgument)
        << codec->name();
  }
}

TEST(Codecs, SpecialFloats) {
  auto desc = datadesc_by_name("double");
  for (const Codec* codec : all_codecs()) {
    for (double v : {0.0, -0.0, 1e-300, -1e300, std::numeric_limits<double>::infinity()}) {
      const auto wire = codec->encode(*desc, Value(v), arch_by_name("ppc"));
      const Value out = codec->decode(*desc, wire, arch_by_name("x86"));
      EXPECT_EQ(out.as_float(), v) << codec->name();
    }
    // NaN compares unequal to itself; check bit-level survival separately.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const auto wire = codec->encode(*desc, Value(nan), arch_by_name("ppc"));
    EXPECT_TRUE(std::isnan(codec->decode(*desc, wire, arch_by_name("x86")).as_float()))
        << codec->name();
  }
}

TEST(Codecs, EmptyStringAndEmptyDynArray) {
  auto desc = DataDesc::struct_("m", {{"s", DataDesc::string("s")},
                                      {"d", DataDesc::dyn_array(datadesc_by_name("int"), "d")}});
  const Value v(ValueStruct{{"s", Value(std::string())}, {"d", Value(ValueList{})}});
  for (const Codec* codec : all_codecs()) {
    const auto wire = codec->encode(*desc, v, arch_by_name("sparc"));
    EXPECT_EQ(codec->decode(*desc, wire, arch_by_name("x86")), v) << codec->name();
  }
}

TEST(Codecs, ReceiverOverflowMessage) {
  // A 64-bit long survives an LP64 sender (and XDR's hyper) but not an ILP32
  // receiver. CDR has no such case: its IDL widths never exceed a receiver's.
  auto desc = DataDesc::scalar(CType::kLong, "hops");
  for (const Codec* codec : {&ndr_codec(), &xdr_codec(), &pbio_codec()}) {
    const auto wire = codec->encode(*desc, Value(int64_t{1} << 40), arch_by_name("amd64"));
    EXPECT_EQ(decode_error(*codec, *desc, wire, "x86"),
              "hops (receiver): value 1099511627776 does not fit in 4 bytes")
        << codec->name();
  }
}

TEST(Codecs, SenderOverflowMessage) {
  // x86's long and CDR's IDL long are 4 bytes; XDR sends a uint16 in 4.
  auto hops = DataDesc::scalar(CType::kLong, "hops");
  auto port = DataDesc::scalar(CType::kUInt16, "port");
  struct Case {
    const Codec* codec;
    const DataDesc* desc;
    Value value;
    const char* error;
  };
  const Case cases[] = {
      {&ndr_codec(), hops.get(), Value(int64_t{1} << 40), "hops: value 1099511627776 does not fit in 4 bytes"},
      {&pbio_codec(), hops.get(), Value(int64_t{1} << 40), "hops: value 1099511627776 does not fit in 4 bytes"},
      {&cdr_codec(), hops.get(), Value(int64_t{1} << 40), "hops: value 1099511627776 does not fit in 4 bytes"},
      {&xdr_codec(), port.get(), Value(uint64_t{1} << 33), "port: value 8589934592 does not fit in 4 bytes"},
  };
  for (const Case& c : cases) {
    try {
      (void)c.codec->encode(*c.desc, c.value, arch_by_name("x86"));
      ADD_FAILURE() << c.codec->name() << " encoded a value too wide for the wire";
    } catch (const sg::xbt::InvalidArgument& e) {
      EXPECT_EQ(std::string(e.what()), c.error) << c.codec->name();
    }
  }
}

TEST(Codecs, ShapeMismatchRejected) {
  auto pair = DataDesc::struct_("pair", {{"x", datadesc_by_name("int")},
                                         {"y", datadesc_by_name("int")}});
  auto triple = DataDesc::fixed_array(datadesc_by_name("int"), 3, "triple");
  struct Case {
    const DataDesc* desc;
    Value value;
    const char* error;
  };
  const Case cases[] = {
      {pair.get(), Value(ValueStruct{{"x", Value(1)}}), "pair: value has 1 fields, description has 2"},
      {pair.get(), Value(ValueStruct{{"x", Value(1)}, {"y", Value(2)}, {"z", Value(3)}}),
       "pair: value has 3 fields, description has 2"},
      {triple.get(), Value(ValueList{Value(1), Value(2)}),
       "triple: value has 2 elements, description has 3"},
      {triple.get(), Value(ValueList{Value(1), Value(2), Value(3), Value(4)}),
       "triple: value has 4 elements, description has 3"},
  };
  for (const Codec* codec : all_codecs()) {
    for (const Case& c : cases) {
      try {
        (void)codec->encode(*c.desc, c.value, arch_by_name("sparc"));
        ADD_FAILURE() << codec->name() << " encoded " << c.value.to_string();
      } catch (const sg::xbt::InvalidArgument& e) {
        EXPECT_EQ(std::string(e.what()), c.error) << codec->name();
      }
    }
  }
}

TEST(Codecs, BuffersGrowPastFixedSize) {
  // Strings and dynamic arrays are not part of a description's fixed size,
  // so large ones must grow the encoder's buffer.
  auto desc = DataDesc::struct_("bulk", {{"s", DataDesc::string("s")},
                                         {"d", DataDesc::dyn_array(datadesc_by_name("double"), "d")}});
  ValueList numbers;
  for (int i = 0; i < 1000; ++i)
    numbers.emplace_back(i * 0.25);
  const Value v(ValueStruct{{"s", Value(std::string(5000, 'x'))}, {"d", Value(std::move(numbers))}});
  for (const Codec* codec : all_codecs())
    for (const char* snd : {"x86", "sparc"}) {
      const auto wire = codec->encode(*desc, v, arch_by_name(snd));
      EXPECT_EQ(codec->decode(*desc, wire, arch_by_name("ppc")), v) << codec->name() << " " << snd;
    }
}

TEST(Codecs, HugeDynArrayCountRejected) {
  // A corrupt element count must fail as a truncated buffer, not as an
  // attempt to allocate billions of elements up front.
  auto desc = DataDesc::dyn_array(datadesc_by_name("int"), "d");
  for (const Codec* codec : {&ndr_codec(), &xdr_codec(), &cdr_codec(), &pbio_codec()}) {
    auto wire = codec->encode(*desc, Value(ValueList{}), arch_by_name("x86"));
    ASSERT_GE(wire.size(), 4u);
    for (size_t i = wire.size() - 4; i < wire.size(); ++i)  // the count is the last word
      wire[i] = 0xFF;
    EXPECT_THROW(codec->decode(*desc, wire, arch_by_name("x86")), sg::xbt::InvalidArgument)
        << codec->name();
  }
}

TEST(CodecConcurrency, SharedDescriptionAcrossThreads) {
  // Plans are built with the descriptions and never mutated, so threads may
  // encode and decode through one shared description without a lock.
  const DataDescPtr desc = pastry_message_desc();
  std::vector<Value> messages;
  sg::xbt::Rng rng(42);
  for (int i = 0; i < 8; ++i)
    messages.push_back(make_pastry_message(rng, 128));
  const std::vector<const Codec*> codecs = all_codecs();
  const char* archs[] = {"x86", "sparc", "ppc", "amd64"};
  constexpr int kThreads = 4;
  int failures[kThreads] = {};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const Codec& codec = *codecs[static_cast<size_t>(i + t) % codecs.size()];
        const Value& msg = messages[static_cast<size_t>(i) % messages.size()];
        const auto wire = codec.encode(*desc, msg, arch_by_name(archs[(i + t) % 4]));
        if (!(codec.decode(*desc, wire, arch_by_name(archs[i % 4])) == msg))
          ++failures[t];
      }
    });
  for (std::thread& th : threads)
    th.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(failures[t], 0) << "thread " << t;
}

TEST(Pastry, GeneratedMessagesMatchDesc) {
  sg::xbt::Rng rng(1);
  for (int i = 0; i < 20; ++i)
    EXPECT_NO_THROW(pastry_message_desc()->check(make_pastry_message(rng, 100)));
}

}  // namespace
