// Byte-level serialization primitives for the durability subsystem: a
// growable little-endian `ByteSink` and a bounds-checked `ByteSource`.
//
// Design rules (shared by every snapshot/event-log consumer):
//   * explicit little-endian byte order, so snapshot files are portable
//     across hosts (matching the nn::checkpoint flat-weight format).  The
//     host must be little-endian with 8-byte size_t (checked at compile
//     time below), so a value's in-memory bytes are its encoding and
//     scalars and whole vectors are copied, never converted;
//   * every read validates against the remaining byte count *before*
//     allocating or advancing — a corrupted length prefix yields a clean
//     std::runtime_error, never a multi-GB allocation or an overrun;
//   * doubles and floats round-trip bit-exactly via their IEEE-754 bit
//     patterns, which is what makes restored RNG streams, virtual clocks
//     and EMA state byte-identical to the uninterrupted run.
//
// Header-only: the encode/decode loops are tiny and sit on the
// checkpoint path, where call overhead would dominate.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace tifl::util {

// Floats go on the wire as 4-byte words; doubles, u64 and size_t as
// 8-byte words.  A port to a big-endian host or another size_t width
// fails here instead of writing foreign bytes.
static_assert(std::endian::native == std::endian::little &&
                  sizeof(std::size_t) == 8 && sizeof(float) == 4 &&
                  sizeof(double) == 8,
              "util/serial copies in-memory bytes as little-endian words");

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte range.
// Guards every snapshot payload and event-log record frame.  Slicing-by-8:
// table k advances a byte's contribution past k further bytes, so eight
// lookups fold eight input bytes at once; the values equal the classic
// one-table, byte-at-a-time loop (which the tail still runs).
inline std::uint32_t crc32(const void* data, std::size_t size,
                           std::uint32_t seed = 0) {
  using Tables = std::array<std::array<std::uint32_t, 256>, 8>;
  static const Tables tables = [] {
    Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::size_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = t[k - 1][i];
        t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
      }
    }
    return t;
  }();
  const auto load_le32 = [](const unsigned char* p) {
    std::uint32_t word;
    std::memcpy(&word, p, sizeof(word));
    return word;
  };
  std::uint32_t crc = ~seed;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (; size >= 8; size -= 8, bytes += 8) {
    const std::uint32_t lo = load_le32(bytes) ^ crc;
    const std::uint32_t hi = load_le32(bytes + 4);
    crc = tables[7][lo & 0xFFu] ^ tables[6][(lo >> 8) & 0xFFu] ^
          tables[5][(lo >> 16) & 0xFFu] ^ tables[4][lo >> 24] ^
          tables[3][hi & 0xFFu] ^ tables[2][(hi >> 8) & 0xFFu] ^
          tables[1][(hi >> 16) & 0xFFu] ^ tables[0][hi >> 24];
  }
  for (; size > 0; --size, ++bytes) {
    crc = tables[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

inline std::uint32_t crc32(std::string_view bytes, std::uint32_t seed = 0) {
  return crc32(bytes.data(), bytes.size(), seed);
}

// Append-only little-endian encoder over a std::string buffer.  clear()
// keeps the capacity, so a reused sink stops allocating once it has held
// its largest payload.
class ByteSink {
 public:
  const std::string& bytes() const noexcept { return buffer_; }
  std::string take() { return std::move(buffer_); }
  std::size_t size() const noexcept { return buffer_.size(); }
  void clear() noexcept { buffer_.clear(); }

  void put_u8(std::uint8_t v) {
    buffer_.push_back(static_cast<char>(v));
  }
  void put_u32(std::uint32_t v) { put_bytes(&v, sizeof(v)); }
  void put_u64(std::uint64_t v) { put_bytes(&v, sizeof(v)); }
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }
  void put_f32(float v) { put_u32(std::bit_cast<std::uint32_t>(v)); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  void put_bytes(const void* data, std::size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }

  void put_string(std::string_view s) {
    put_u64(s.size());
    buffer_.append(s.data(), s.size());
  }

  // Length-prefixed element vectors; floats/doubles as raw LE words.
  void put_f32_vec(const std::vector<float>& v) { put_vec(v); }
  void put_f64_vec(const std::vector<double>& v) { put_vec(v); }
  void put_u64_vec(const std::vector<std::uint64_t>& v) { put_vec(v); }
  void put_size_vec(const std::vector<std::size_t>& v) { put_vec(v); }

 private:
  template <typename T>
  void put_vec(const std::vector<T>& v) {
    put_u64(v.size());
    put_bytes(v.data(), v.size() * sizeof(T));
  }

  std::string buffer_;
};

// Bounds-checked little-endian decoder over a borrowed byte range.  All
// reads throw std::runtime_error on truncation; length prefixes are
// validated against the remaining bytes before any allocation.
class ByteSource {
 public:
  explicit ByteSource(std::string_view bytes) : bytes_(bytes) {}

  std::size_t remaining() const noexcept { return bytes_.size() - offset_; }
  bool exhausted() const noexcept { return offset_ == bytes_.size(); }
  std::size_t offset() const noexcept { return offset_; }

  std::uint8_t get_u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[offset_++]);
  }
  std::uint32_t get_u32() { return get_word<std::uint32_t>(); }
  std::uint64_t get_u64() { return get_word<std::uint64_t>(); }
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  double get_f64() { return std::bit_cast<double>(get_u64()); }
  float get_f32() { return std::bit_cast<float>(get_u32()); }
  bool get_bool() { return get_u8() != 0; }

  std::string_view get_bytes(std::size_t size) {
    need(size);
    std::string_view out = bytes_.substr(offset_, size);
    offset_ += size;
    return out;
  }

  std::string get_string() {
    const std::size_t n = checked_count(get_u64(), 1);
    std::string_view raw = get_bytes(n);
    return std::string(raw);
  }

  std::vector<float> get_f32_vec() { return get_vec<float>(); }
  std::vector<double> get_f64_vec() { return get_vec<double>(); }
  std::vector<std::uint64_t> get_u64_vec() {
    return get_vec<std::uint64_t>();
  }
  std::vector<std::size_t> get_size_vec() { return get_vec<std::size_t>(); }

  // Validates a decoded element count against the bytes actually left,
  // *before* the caller allocates (the nn::checkpoint corrupted-count
  // lesson: a flipped length byte must not drive a multi-GB resize).
  std::size_t checked_count(std::uint64_t count, std::size_t elem_size) {
    if (elem_size > 0 && count > remaining() / elem_size) {
      throw std::runtime_error(
          "serial: element count exceeds remaining bytes (corrupt data)");
    }
    return static_cast<std::size_t>(count);
  }

 private:
  void need(std::size_t n) const {
    if (n > remaining()) {
      throw std::runtime_error("serial: truncated input");
    }
  }

  template <typename Word>
  Word get_word() {
    need(sizeof(Word));
    Word v;
    std::memcpy(&v, bytes_.data() + offset_, sizeof(Word));
    offset_ += sizeof(Word);
    return v;
  }

  template <typename T>
  std::vector<T> get_vec() {
    const std::size_t n = checked_count(get_u64(), sizeof(T));
    std::vector<T> v(n);
    if (n > 0) std::memcpy(v.data(), bytes_.data() + offset_, n * sizeof(T));
    offset_ += n * sizeof(T);
    return v;
  }

  std::string_view bytes_;
  std::size_t offset_ = 0;
};

}  // namespace tifl::util
