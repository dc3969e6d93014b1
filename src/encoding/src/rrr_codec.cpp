#include "eim/encoding/rrr_codec.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "eim/encoding/huffman.hpp"
#include "eim/encoding/varint.hpp"
#include "eim/support/bits.hpp"
#include "eim/support/crc32.hpp"
#include "eim/support/error.hpp"

namespace eim::encoding {

namespace {

// Fixed little-endian frame header:
//   magic(8) codec(1) num_sets(8) num_values(8) lengths_bytes(8)
//   payload_bytes(8) crc32c(4)
constexpr std::size_t kHeaderBytes = 8 + 1 + 8 + 8 + 8 + 8 + 4;

/// Sequential writer into a frame the encoder priced up front — the mirror
/// of Cursor. Stores go by index into a buffer of exactly the priced size,
/// so every field must be priced by the same rule that writes it;
/// take() verifies the total.
class FrameWriter {
 public:
  explicit FrameWriter(std::size_t bytes) : frame_(bytes) {}

  void u8(std::uint8_t v) { frame_[at_++] = v; }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  /// LEB128, byte for byte what varint_append writes.
  void varint(std::uint32_t v) {
    for (; v >= 0x80; v >>= 7) u8(static_cast<std::uint8_t>(v) | 0x80u);
    u8(static_cast<std::uint8_t>(v));
  }
  void bytes(std::span<const std::uint8_t> b) {
    std::copy(b.begin(), b.end(), frame_.begin() + static_cast<std::ptrdiff_t>(at_));
    at_ += b.size();
  }
  [[nodiscard]] std::vector<std::uint8_t> take() {
    EIM_CHECK_MSG(at_ == frame_.size(), "rrr block: frame mispriced");
    return std::move(frame_);
  }

 private:
  std::vector<std::uint8_t> frame_;
  std::size_t at_ = 0;
};

class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::span<const std::uint8_t> take(std::size_t n) {
    if (bytes_.size() - at_ < n) {
      throw support::IoError("rrr block: truncated frame");
    }
    const auto view = bytes_.subspan(at_, n);
    at_ += n;
    return view;
  }
  [[nodiscard]] std::uint8_t u8() { return take(1)[0]; }
  [[nodiscard]] std::uint32_t u32() {
    const auto v = take(4);
    std::uint32_t r = 0;
    for (std::size_t i = 0; i < 4; ++i) r |= static_cast<std::uint32_t>(v[i]) << (8 * i);
    return r;
  }
  [[nodiscard]] std::uint64_t u64() {
    const auto v = take(8);
    std::uint64_t r = 0;
    for (std::size_t i = 0; i < 8; ++i) r |= static_cast<std::uint64_t>(v[i]) << (8 * i);
    return r;
  }
  [[nodiscard]] std::size_t remaining() const noexcept { return bytes_.size() - at_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t at_ = 0;
};

// Delta transform: within each (strictly ascending) set, the first member is
// absolute and every later one stores the gap minus one — small symbols that
// both varint and Huffman compress well.
std::vector<std::uint32_t> to_deltas(std::span<const std::uint32_t> lengths,
                                     std::span<const std::uint32_t> values) {
  std::vector<std::uint32_t> deltas;
  deltas.reserve(values.size());
  std::size_t at = 0;
  for (const std::uint32_t len : lengths) {
    for (std::uint32_t j = 0; j < len; ++j) {
      deltas.push_back(j == 0 ? values[at] : values[at] - values[at - 1] - 1);
      ++at;
    }
  }
  return deltas;
}

/// Bytes of `value` as a LEB128 varint.
std::uint64_t varint_bytes(std::uint32_t value) noexcept {
  return 1 + std::uint64_t{value >= (1u << 7)} + std::uint64_t{value >= (1u << 14)} +
         std::uint64_t{value >= (1u << 21)} + std::uint64_t{value >= (1u << 28)};
}

// Serialized Huffman section: u32 table size, (u32 symbol, u8 length) per
// table entry, u64 symbol count, u64 payload size, then the payload.
std::uint64_t huffman_section_bytes(const HuffmanCode& code) noexcept {
  return 4 + 5 * std::uint64_t{code.alphabet_size()} + 16 +
         support::div_ceil<std::uint64_t>(code.payload_bits(), 8);
}

void write_huffman(FrameWriter& out, const HuffmanBlock& block) {
  out.u32(static_cast<std::uint32_t>(block.symbols.size()));
  for (std::size_t i = 0; i < block.symbols.size(); ++i) {
    out.u32(block.symbols[i]);
    out.u8(block.lengths[i]);
  }
  out.u64(block.num_symbols);
  out.u64(block.bits.size());
  out.bytes(block.bits);
}

HuffmanBlock deserialize_huffman(Cursor& cur) {
  HuffmanBlock block;
  const std::uint32_t num_codes = cur.u32();
  // Each table entry takes 5 bytes, so the payload bounds the reservation.
  const std::size_t fits = std::min<std::size_t>(num_codes, cur.remaining() / 5);
  block.symbols.reserve(fits);
  block.lengths.reserve(fits);
  for (std::uint32_t i = 0; i < num_codes; ++i) {
    block.symbols.push_back(cur.u32());
    block.lengths.push_back(cur.u8());
  }
  block.num_symbols = cur.u64();
  const std::uint64_t bits_bytes = cur.u64();
  const auto bits = cur.take(bits_bytes);
  block.bits.assign(bits.begin(), bits.end());
  return block;
}

}  // namespace

std::vector<std::uint8_t> rrr_block_encode(std::span<const std::uint32_t> lengths,
                                           std::span<const std::uint32_t> values) {
  const std::vector<std::uint32_t> deltas = to_deltas(lengths, values);

  // Price the whole frame before writing any of it. Lengths section:
  // varint-coded (they are small and few). Values section: both candidate
  // codecs are priced exactly and only the smaller is built — varint wins
  // on tiny/uniform blocks, Huffman on skewed hub-heavy ones; a tie keeps
  // varint.
  std::uint64_t lengths_bytes = 0;
  for (const std::uint32_t len : lengths) lengths_bytes += varint_bytes(len);
  std::uint64_t varint_section = 0;
  for (const std::uint32_t d : deltas) varint_section += varint_bytes(d);
  const HuffmanCode huffman(deltas);
  const std::uint64_t huffman_section = huffman_section_bytes(huffman);
  const bool use_huffman = !deltas.empty() && huffman_section < varint_section;
  const std::uint64_t payload_bytes =
      lengths_bytes + (use_huffman ? huffman_section : varint_section);

  FrameWriter out(kHeaderBytes + payload_bytes);
  for (const char c : kRrrBlockMagic) out.u8(static_cast<std::uint8_t>(c));
  out.u8(use_huffman ? kRrrBlockCodecHuffman : kRrrBlockCodecVarint);
  out.u64(lengths.size());
  out.u64(values.size());
  out.u64(lengths_bytes);
  out.u64(payload_bytes);
  out.u32(0);  // CRC-32C, patched once the payload is written
  for (const std::uint32_t len : lengths) out.varint(len);
  if (use_huffman) {
    write_huffman(out, huffman.encode(deltas));
  } else {
    for (const std::uint32_t d : deltas) out.varint(d);
  }
  std::vector<std::uint8_t> frame = out.take();

  const std::uint32_t crc =
      support::crc32c(std::span<const std::uint8_t>(frame).subspan(kHeaderBytes));
  for (std::size_t i = 0; i < 4; ++i) {
    frame[kHeaderBytes - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  return frame;
}

DecodedRrrBlock rrr_block_decode(std::span<const std::uint8_t> bytes) {
  Cursor header(bytes);
  const auto magic = header.take(kRrrBlockMagic.size());
  if (std::memcmp(magic.data(), kRrrBlockMagic.data(), kRrrBlockMagic.size()) != 0) {
    throw support::IoError("rrr block: bad magic");
  }
  const std::uint8_t codec = header.u8();
  const std::uint64_t num_sets = header.u64();
  const std::uint64_t num_values = header.u64();
  const std::uint64_t lengths_bytes = header.u64();
  const std::uint64_t payload_bytes = header.u64();
  const std::uint32_t crc = header.u32();
  if (header.remaining() != payload_bytes || lengths_bytes > payload_bytes) {
    throw support::IoError("rrr block: truncated frame");
  }
  const auto payload = header.take(payload_bytes);
  if (support::crc32c(payload) != crc) {
    throw support::IoError("rrr block: CRC-32C mismatch (torn or corrupt block)");
  }

  DecodedRrrBlock block;
  const std::vector<std::uint64_t> lens =
      varint_decode(payload.subspan(0, lengths_bytes));
  if (lens.size() != num_sets) {
    throw support::IoError("rrr block: lengths section does not match header");
  }
  block.lengths.reserve(num_sets);
  std::uint64_t total = 0;
  for (const std::uint64_t len : lens) {
    if (len > UINT32_MAX) throw support::IoError("rrr block: set length out of range");
    block.lengths.push_back(static_cast<std::uint32_t>(len));
    total += len;
  }
  if (total != num_values) {
    throw support::IoError("rrr block: value count does not match header");
  }

  std::vector<std::uint32_t> deltas;
  const auto section = payload.subspan(lengths_bytes);
  if (codec == kRrrBlockCodecVarint) {
    const std::vector<std::uint64_t> wide = varint_decode(section);
    deltas.reserve(wide.size());
    for (const std::uint64_t d : wide) deltas.push_back(static_cast<std::uint32_t>(d));
  } else if (codec == kRrrBlockCodecHuffman) {
    Cursor cur(section);
    const HuffmanBlock huffman = deserialize_huffman(cur);
    if (huffman.num_symbols != num_values) {
      throw support::IoError("rrr block: huffman symbol count does not match header");
    }
    deltas = huffman_decode(huffman);
  } else {
    throw support::IoError("rrr block: unknown codec id");
  }
  if (deltas.size() != num_values) {
    throw support::IoError("rrr block: values section does not match header");
  }

  block.values.reserve(num_values);
  std::size_t at = 0;
  for (const std::uint32_t len : block.lengths) {
    std::uint32_t prev = 0;
    for (std::uint32_t j = 0; j < len; ++j) {
      prev = j == 0 ? deltas[at] : prev + deltas[at] + 1;
      block.values.push_back(prev);
      ++at;
    }
  }
  return block;
}

std::uint8_t rrr_block_codec(std::span<const std::uint8_t> bytes) {
  Cursor header(bytes);
  (void)header.take(kRrrBlockMagic.size());
  return header.u8();
}

}  // namespace eim::encoding
