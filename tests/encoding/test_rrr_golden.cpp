// Golden frames for the spill-block codec (rrr_codec.hpp).
//
// A seeded corpus covers both sides of the codec choice: uniform small
// deltas (varint wins), skewed hub-heavy deltas (Huffman wins), a single
// symbol, zero-length sets, symbols >= 2^31 and blocks whose two section
// sizes tie (varint must win). Each frame's (size, CRC-32C) pair is pinned,
// so any change to the encoder that moves a single byte fails here: the
// host tier, the disk tier and the modeled PCIe/disk charges all read these
// bytes. Independently of the pins, the frame must carry the smaller values
// section — priced here from the public varint and Huffman encoders — and
// round-trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "eim/encoding/huffman.hpp"
#include "eim/encoding/rrr_codec.hpp"
#include "eim/encoding/varint.hpp"
#include "eim/support/crc32.hpp"

namespace eim::encoding {
namespace {

struct Block {
  std::vector<std::uint32_t> lengths;
  std::vector<std::uint32_t> values;

  /// Append one strictly ascending set: `first`, then each gap in turn.
  void add_set(std::uint32_t first, const std::vector<std::uint32_t>& gaps) {
    lengths.push_back(static_cast<std::uint32_t>(gaps.size() + 1));
    values.push_back(first);
    for (const std::uint32_t g : gaps) values.push_back(values.back() + g);
  }
  void add_empty_set() { lengths.push_back(0); }
};

struct GoldenCase {
  std::string name;
  Block block;
  std::uint8_t codec;       ///< the section the frame carries
  std::size_t frame_bytes;  ///< pinned
  std::uint32_t frame_crc;  ///< pinned CRC-32C over the whole frame
};

// The corpus draws from std::mt19937 with modulo reduction only: the
// engine's output sequence is fixed by the standard, the distributions'
// are not.
std::uint32_t draw(std::mt19937& rng) { return static_cast<std::uint32_t>(rng()); }

std::vector<GoldenCase> corpus() {
  std::vector<GoldenCase> cases;

  {  // Uniform small deltas over a wide alphabet: the table sinks Huffman.
    std::mt19937 rng(11);
    Block b;
    for (int s = 0; s < 64; ++s) {
      std::vector<std::uint32_t> gaps;
      for (int j = 0; j < 7; ++j) gaps.push_back(1 + draw(rng) % 100);
      b.add_set(draw(rng) % 100, gaps);
    }
    cases.push_back({"uniform_small", b, kRrrBlockCodecVarint, 621, 0xb93f06e6u});
  }
  {  // Hub-heavy sets: mostly adjacent members, a rare long jump.
    std::mt19937 rng(12);
    Block b;
    for (int s = 0; s < 256; ++s) {
      const std::uint32_t len = s % 16 == 0 ? 1024 : 1 + draw(rng) % 64;
      std::vector<std::uint32_t> gaps;
      for (std::uint32_t j = 1; j < len; ++j) {
        gaps.push_back(draw(rng) % 8 == 0 ? 2 + draw(rng) % 200 : 1 + draw(rng) % 2);
      }
      b.add_set(draw(rng) % 8, gaps);
    }
    cases.push_back({"skewed_hub", b, kRrrBlockCodecHuffman, 9044, 0x8527e304u});
  }
  {  // A block shaped like a real eviction: many distinct mid-size deltas.
    std::mt19937 rng(13);
    Block b;
    for (int s = 0; s < 512; ++s) {
      const std::uint32_t len = 1 + draw(rng) % 56;
      std::vector<std::uint32_t> gaps;
      for (std::uint32_t j = 1; j < len; ++j) {
        const std::uint32_t r = draw(rng);
        gaps.push_back(1 + (r % 2 == 0 ? r % 3000 : r % 24));
      }
      b.add_set(draw(rng) % 62'586, gaps);
    }
    cases.push_back({"eviction_like", b, kRrrBlockCodecVarint, 22930, 0x0c53ccc1u});
  }
  {  // One symbol, many times: 1-bit codes beat one varint byte each.
    Block b;
    for (int s = 0; s < 200; ++s) b.add_set(7, {});
    cases.push_back({"single_symbol", b, kRrrBlockCodecHuffman, 295, 0xafda3eeau});
  }
  {  // One symbol, too few times to pay for the table.
    Block b;
    for (int s = 0; s < 3; ++s) b.add_set(42, {});
    cases.push_back({"single_symbol_short", b, kRrrBlockCodecVarint, 51, 0xb0a1d555u});
  }
  {  // Zero-length sets interleaved with real ones.
    Block b;
    b.add_empty_set();
    b.add_set(5, {4, 91});
    b.add_empty_set();
    b.add_empty_set();
    b.add_set(0, {7});
    b.add_empty_set();
    cases.push_back({"zero_length_sets", b, kRrrBlockCodecVarint, 56, 0xbb033665u});
  }
  {  // Only zero-length sets: an empty values section.
    Block b;
    for (int s = 0; s < 4; ++s) b.add_empty_set();
    cases.push_back({"all_zero_length", b, kRrrBlockCodecVarint, 49, 0x74342a88u});
  }
  cases.push_back({"empty", Block{}, kRrrBlockCodecVarint, 45, 0x5dd5a4ebu});
  {  // Symbols >= 2^31: five-byte varints, one per value.
    Block b;
    b.add_set(0x8000'0000u, {0x7FFF'FFFFu});
    b.add_empty_set();
    b.add_set(0x8000'0001u, {0x3FFF'FFFFu, 0x3FFF'FFFEu});
    cases.push_back({"wide_symbols_varint", b, kRrrBlockCodecVarint, 73, 0x9c8848d2u});
  }
  {  // Symbols >= 2^31 that repeat: Huffman's table holds them cheaply.
    const std::uint32_t pool[] = {0x8000'0000u, 0xFFFF'FFFFu, 0x9ABC'DEF0u,
                                  0x8000'0000u, 5u,           0x8000'0000u};
    Block b;
    for (int s = 0; s < 300; ++s) b.add_set(pool[s % 6], {});
    cases.push_back({"wide_symbols_huffman", b, kRrrBlockCodecHuffman, 454, 0xd2e58c62u});
  }
  {  // Huffman wins on counts 20, 20, 40, 40: the first merge (40) ties
     // both 40-count leaves, and taking leaves before the merged node gives
     // four 2-bit codes, where the other order gives lengths 1, 2, 3, 3 of
     // the same total. The pinned bytes hold the construction to its order.
    const std::uint32_t pattern[] = {0, 1, 2, 2, 3, 3};
    Block b;
    for (int s = 0; s < 120; ++s) b.add_set(pattern[s % 6], {});
    cases.push_back({"merge_tie_huffman", b, kRrrBlockCodecHuffman, 235, 0x9f379346u});
  }
  {  // Tie, one symbol: 4 + 5 + 16 + ceil(29/8) = 29 = 29 varint bytes.
    Block b;
    for (int s = 0; s < 29; ++s) b.add_set(5, {});
    cases.push_back({"tie_one_symbol", b, kRrrBlockCodecVarint, 103, 0xce7976ccu});
  }
  {  // One value past the tie: Huffman is strictly smaller.
    Block b;
    for (int s = 0; s < 30; ++s) b.add_set(5, {});
    cases.push_back({"past_tie_one_symbol", b, kRrrBlockCodecHuffman, 104, 0x4e53bf65u});
  }
  {  // Tie, two symbols: deltas 0,1,0,1,... give 1-bit codes, so
     // 4 + 10 + 16 + ceil(35/8) = 35 = 35 varint bytes.
    Block b;
    std::vector<std::uint32_t> gaps;
    for (int j = 1; j < 35; ++j) gaps.push_back(j % 2 == 1 ? 2 : 1);
    b.add_set(0, gaps);
    cases.push_back({"tie_two_symbols", b, kRrrBlockCodecVarint, 81, 0xb6fed394u});
  }
  return cases;
}

/// The values-section symbols: per set, the first member, then gap - 1.
std::vector<std::uint32_t> deltas_of(const Block& b) {
  std::vector<std::uint32_t> deltas;
  std::size_t at = 0;
  for (const std::uint32_t len : b.lengths) {
    for (std::uint32_t j = 0; j < len; ++j, ++at) {
      deltas.push_back(j == 0 ? b.values[at] : b.values[at] - b.values[at - 1] - 1);
    }
  }
  return deltas;
}

std::size_t varint_section_bytes(const std::vector<std::uint32_t>& deltas) {
  std::vector<std::uint8_t> out;
  for (const std::uint32_t d : deltas) varint_append(out, d);
  return out.size();
}

/// Serialized Huffman section: u32 table size, (u32 symbol, u8 length) per
/// entry, u64 symbol count, u64 payload size, payload.
std::size_t huffman_section_bytes(const std::vector<std::uint32_t>& deltas) {
  const HuffmanBlock h = huffman_encode(deltas);
  return 4 + 5 * h.symbols.size() + 16 + h.bits.size();
}

TEST(RrrGolden, FramesMatchTheirPinnedSizeAndCrc) {
  for (const GoldenCase& c : corpus()) {
    const std::vector<std::uint8_t> frame =
        rrr_block_encode(c.block.lengths, c.block.values);
    EXPECT_EQ(frame.size(), c.frame_bytes) << c.name;
    EXPECT_EQ(support::crc32c(frame), c.frame_crc) << c.name;
    EXPECT_EQ(rrr_block_codec(frame), c.codec) << c.name;
  }
}

TEST(RrrGolden, FrameCarriesTheSmallerSection) {
  for (const GoldenCase& c : corpus()) {
    const std::vector<std::uint32_t> deltas = deltas_of(c.block);
    const std::size_t varint = varint_section_bytes(deltas);
    const bool huffman_smaller =
        !deltas.empty() && huffman_section_bytes(deltas) < varint;
    const std::vector<std::uint8_t> frame =
        rrr_block_encode(c.block.lengths, c.block.values);
    EXPECT_EQ(rrr_block_codec(frame),
              huffman_smaller ? kRrrBlockCodecHuffman : kRrrBlockCodecVarint)
        << c.name;
  }
}

TEST(RrrGolden, TieCasesReallyTie) {
  // Guards the corpus itself: a tie case that stopped tying would let a
  // `<=` in the codec choice slip through.
  for (const GoldenCase& c : corpus()) {
    if (c.name.rfind("tie_", 0) != 0) continue;
    const std::vector<std::uint32_t> deltas = deltas_of(c.block);
    EXPECT_EQ(huffman_section_bytes(deltas), varint_section_bytes(deltas)) << c.name;
  }
}

TEST(RrrGolden, FramesRoundTrip) {
  for (const GoldenCase& c : corpus()) {
    const DecodedRrrBlock back =
        rrr_block_decode(rrr_block_encode(c.block.lengths, c.block.values));
    EXPECT_EQ(back.lengths, c.block.lengths) << c.name;
    EXPECT_EQ(back.values, c.block.values) << c.name;
  }
}

}  // namespace
}  // namespace eim::encoding
