#include "common/wire.h"

#include "common/error.h"

namespace mykil {

void WireWriter::reserve(std::size_t additional) {
  buf_.reserve(buf_.size() + additional);
}

void WireWriter::u8(std::uint8_t v) { buf_.push_back(v); }

void WireWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void WireWriter::u32(std::uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8)
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
}

void WireWriter::u64(std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8)
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
}

void WireWriter::bytes(ByteView b) {
  u32(static_cast<std::uint32_t>(b.size()));
  raw(b);
}

void WireWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void WireWriter::raw(ByteView b) { buf_.insert(buf_.end(), b.begin(), b.end()); }

void WireReader::need(std::size_t n) const {
  if (remaining() < n) throw WireError("truncated message");
}

std::uint8_t WireReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t WireReader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] << 8 | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::uint32_t WireReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = v << 8 | data_[pos_ + i];
  pos_ += 4;
  return v;
}

std::uint64_t WireReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = v << 8 | data_[pos_ + i];
  pos_ += 8;
  return v;
}

ByteView WireReader::take(std::size_t n) {
  need(n);
  ByteView v = data_.subspan(pos_, n);
  pos_ += n;
  return v;
}

Bytes WireReader::bytes() {
  ByteView v = view();
  return Bytes(v.begin(), v.end());
}

ByteView WireReader::view() { return take(u32()); }

std::string WireReader::str() {
  ByteView v = view();
  return std::string(v.begin(), v.end());
}

Bytes WireReader::raw(std::size_t n) {
  ByteView v = take(n);
  return Bytes(v.begin(), v.end());
}

void WireReader::expect_done() const {
  if (!done()) throw WireError("trailing bytes after message");
}

}  // namespace mykil
