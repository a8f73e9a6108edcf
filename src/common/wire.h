// Wire serialization: a small, explicit big-endian format used by every
// protocol message in the repository.
//
// Format rules:
//   - fixed-width integers are big-endian,
//   - variable-length byte strings / strings are length-prefixed with u32,
//   - readers validate every length against the remaining buffer and throw
//     WireError on truncation, so malformed network input can never read
//     out of bounds.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.h"

namespace mykil {

/// Serializes values into a growing byte buffer.
class WireWriter {
 public:
  WireWriter() = default;

  /// Reserve capacity for at least `additional` more bytes, so serializers
  /// that can size their output up front append without reallocating.
  void reserve(std::size_t additional);

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Length-prefixed (u32) byte string.
  void bytes(ByteView b);
  /// Length-prefixed (u32) UTF-8 string.
  void str(std::string_view s);
  /// Raw bytes with no length prefix (fixed-size fields the reader knows).
  void raw(ByteView b);

  [[nodiscard]] const Bytes& data() const { return buf_; }
  Bytes take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Deserializes values from a byte buffer; throws WireError on truncation.
/// The reader keeps a view of `data`, so the buffer must outlive it; a
/// temporary Bytes is rejected at compile time.
class WireReader {
 public:
  explicit WireReader(ByteView data) : data_(data) {}
  explicit WireReader(Bytes&&) = delete;

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  /// Length-prefixed (u32) byte string.
  Bytes bytes();
  /// Length-prefixed (u32) byte string as a view into the reader's buffer:
  /// no copy, valid only while that buffer lives.
  ByteView view();
  /// Length-prefixed (u32) UTF-8 string.
  std::string str();
  /// Exactly `n` raw bytes.
  Bytes raw(std::size_t n);
  /// The next `n` bytes as a view into the reader's buffer, consumed.
  ByteView take(std::size_t n);
  /// Everything not yet read, as a view into the reader's buffer; consumes
  /// it (a nested format that fills the rest of a message).
  ByteView rest() { return take(remaining()); }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return remaining() == 0; }
  /// Throws WireError unless the whole buffer was consumed. Call at the end
  /// of every message parser so trailing garbage is rejected.
  void expect_done() const;

 private:
  void need(std::size_t n) const;

  ByteView data_;
  std::size_t pos_ = 0;
};

}  // namespace mykil
