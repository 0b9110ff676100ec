/// \file wire.hpp
/// Low-level byte stream reader/writer shared by the codecs: alignment
/// padding, explicit endianness, explicit scalar widths, range checking.
/// Scalars move with one memcpy plus, when the byte orders differ, one byte
/// swap; error text is only built on the throwing path.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "datadesc/arch.hpp"
#include "xbt/exception.hpp"

namespace sg::datadesc {

namespace wire_detail {

inline std::uint16_t bswap(std::uint16_t x) { return __builtin_bswap16(x); }
inline std::uint32_t bswap(std::uint32_t x) { return __builtin_bswap32(x); }
inline std::uint64_t bswap(std::uint64_t x) { return __builtin_bswap64(x); }

template <typename T>
void store(std::uint8_t* p, std::uint64_t bits, bool big_endian) {
  auto x = static_cast<T>(bits);
  if (big_endian != (std::endian::native == std::endian::big))
    x = bswap(x);
  std::memcpy(p, &x, sizeof x);
}

template <typename T>
std::uint64_t load(const std::uint8_t* p, bool big_endian) {
  T x;
  std::memcpy(&x, p, sizeof x);
  if (big_endian != (std::endian::native == std::endian::big))
    x = bswap(x);
  return x;
}

}  // namespace wire_detail

/// Append-only writer over one buffer. Bytes past the cursor are always zero
/// (the buffer only grows by value-initialized resizes), so alignment padding
/// is a cursor move.
class WireWriter {
public:
  /// `size_hint` is the initial buffer size; the buffer grows past it.
  explicit WireWriter(size_t size_hint = 0) : buf_(size_hint) {}

  /// The bytes written so far; the writer is spent afterwards.
  std::vector<std::uint8_t> take() {
    buf_.resize(pos_);
    return std::move(buf_);
  }

  /// Pad with zeros to a multiple of `alignment` (a power of two).
  void align(size_t alignment) {
    const size_t pad = (0 - pos_) & (alignment - 1);
    room(pad);
    pos_ += pad;
  }

  void put_bytes(const void* data, size_t n) {
    if (n == 0)
      return;
    room(n);
    std::memcpy(buf_.data() + pos_, data, n);
    pos_ += n;
  }

  void put_u8(std::uint8_t v) {
    room(1);
    buf_[pos_++] = v;
  }

  /// Write the low `size` (1, 2, 4 or 8) bytes of `bits` in the requested
  /// byte order.
  void put_bits(std::uint64_t bits, int size, bool big_endian) {
    room(static_cast<size_t>(size));
    std::uint8_t* p = buf_.data() + pos_;
    switch (size) {
      case 1: *p = static_cast<std::uint8_t>(bits); break;
      case 2: wire_detail::store<std::uint16_t>(p, bits, big_endian); break;
      case 4: wire_detail::store<std::uint32_t>(p, bits, big_endian); break;
      default: wire_detail::store<std::uint64_t>(p, bits, big_endian); break;
    }
    pos_ += static_cast<size_t>(size);
  }

private:
  void room(size_t n) {
    if (n > buf_.size() - pos_)
      buf_.resize(std::max(2 * buf_.size(), pos_ + n));
  }

  std::vector<std::uint8_t> buf_;
  size_t pos_ = 0;
};

class WireReader {
public:
  explicit WireReader(const std::vector<std::uint8_t>& buf) : data_(buf.data()), size_(buf.size()) {}

  size_t remaining() const { return size_ - pos_; }

  /// Skip to a multiple of `alignment` (a power of two).
  void align(size_t alignment) { skip((0 - pos_) & (alignment - 1)); }

  void skip(size_t n) {
    need(n);
    pos_ += n;
  }

  /// Consume `bytes` if the stream continues with exactly them.
  bool skip_if_equal(const std::vector<std::uint8_t>& bytes) {
    if (bytes.size() > remaining() || std::memcmp(data_ + pos_, bytes.data(), bytes.size()) != 0)
      return false;
    pos_ += bytes.size();
    return true;
  }

  std::uint8_t get_u8() {
    need(1);
    return data_[pos_++];
  }

  /// The next `n` bytes, consumed; valid as long as the read buffer.
  const char* take(size_t n) {
    need(n);
    const auto* p = reinterpret_cast<const char*>(data_ + pos_);
    pos_ += n;
    return p;
  }

  /// Read `size` (1, 2, 4 or 8) bytes in the given byte order.
  std::uint64_t get_bits(int size, bool big_endian) {
    need(static_cast<size_t>(size));
    const std::uint8_t* p = data_ + pos_;
    pos_ += static_cast<size_t>(size);
    switch (size) {
      case 1: return *p;
      case 2: return wire_detail::load<std::uint16_t>(p, big_endian);
      case 4: return wire_detail::load<std::uint32_t>(p, big_endian);
      default: return wire_detail::load<std::uint64_t>(p, big_endian);
    }
  }

private:
  void need(size_t n) const {
    if (n > size_ - pos_)
      truncated(n);
  }

  [[noreturn]] void truncated(size_t n) const {
    throw xbt::InvalidArgument("wire: truncated buffer (need " + std::to_string(n) + " at " +
                               std::to_string(pos_) + "/" + std::to_string(size_) + ")");
  }

  const std::uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Sign-extend the low `size` bytes of `bits`.
inline std::int64_t sign_extend(std::uint64_t bits, int size) {
  if (size >= 8)
    return static_cast<std::int64_t>(bits);
  const std::uint64_t sign_bit = 1ULL << (8 * size - 1);
  const std::uint64_t mask = (1ULL << (8 * size)) - 1;
  bits &= mask;
  if (bits & sign_bit)
    bits |= ~mask;
  return static_cast<std::int64_t>(bits);
}

/// Whether a signed value fits in `size` bytes.
inline bool int_fits(std::int64_t v, int size) {
  if (size >= 8)
    return true;
  const std::int64_t hi = (1LL << (8 * size - 1)) - 1;
  return v >= -hi - 1 && v <= hi;
}

inline bool uint_fits(std::uint64_t v, int size) {
  return size >= 8 || v <= (1ULL << (8 * size)) - 1;
}

[[noreturn]] inline void throw_does_not_fit(const std::string& what, const std::string& value,
                                            int size) {
  throw xbt::InvalidArgument(what + ": value " + value + " does not fit in " +
                             std::to_string(size) + " bytes");
}

/// Check a signed value fits in `size` bytes.
inline void check_int_fits(std::int64_t v, int size, const std::string& what) {
  if (!int_fits(v, size))
    throw_does_not_fit(what, std::to_string(v), size);
}

inline void check_uint_fits(std::uint64_t v, int size, const std::string& what) {
  if (!uint_fits(v, size))
    throw_does_not_fit(what, std::to_string(v), size);
}

/// Check that a struct value has as many fields, or a fixed-array value as
/// many elements (`what`), as the description `name` declares.
inline void check_shape(size_t got, size_t want, const std::string& name, const char* what) {
  if (got != want)
    throw xbt::InvalidArgument(name + ": value has " + std::to_string(got) + " " + what +
                               ", description has " + std::to_string(want));
}

inline std::uint64_t float_to_bits(double v, bool single) {
  if (single) {
    const float f = static_cast<float>(v);
    return std::bit_cast<std::uint32_t>(f);
  }
  return std::bit_cast<std::uint64_t>(v);
}

inline double bits_to_float(std::uint64_t bits, bool single) {
  if (single)
    return static_cast<double>(std::bit_cast<float>(static_cast<std::uint32_t>(bits)));
  return std::bit_cast<double>(bits);
}

inline bool ctype_is_float(CType t) { return t == CType::kFloat || t == CType::kDouble; }
inline bool ctype_is_signed(CType t) {
  switch (t) {
    case CType::kInt8:
    case CType::kInt16:
    case CType::kInt32:
    case CType::kInt64:
    case CType::kLong:
      return true;
    default:
      return false;
  }
}

}  // namespace sg::datadesc
