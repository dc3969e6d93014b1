// Spill-block codec roundtrips and corruption detection (rrr_codec.hpp).
#include "eim/encoding/rrr_codec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "eim/support/crc32.hpp"
#include "eim/support/error.hpp"

namespace eim::encoding {
namespace {

using support::IoError;

void expect_roundtrip(const std::vector<std::uint32_t>& lengths,
                      const std::vector<std::uint32_t>& values) {
  const std::vector<std::uint8_t> frame = rrr_block_encode(lengths, values);
  const DecodedRrrBlock back = rrr_block_decode(frame);
  EXPECT_EQ(back.lengths, lengths);
  EXPECT_EQ(back.values, values);
}

TEST(RrrCodec, RoundtripsAnEmptyBatch) { expect_roundtrip({}, {}); }

TEST(RrrCodec, RoundtripsZeroLengthSets) {
  expect_roundtrip({0, 3, 0, 2, 0}, {5, 9, 100, 0, 7});
}

TEST(RrrCodec, RoundtripsSingleSymbolSets) {
  expect_roundtrip({1, 1, 1}, {42, 42, 42});
}

TEST(RrrCodec, RoundtripsLargeSkewedSets) {
  // Power-law-ish membership: many small ascending runs plus a giant one,
  // drawn from a biased distribution so Huffman has something to win on.
  std::mt19937 rng(7);
  std::vector<std::uint32_t> lengths;
  std::vector<std::uint32_t> values;
  for (int s = 0; s < 200; ++s) {
    const std::uint32_t len = (s % 17 == 0) ? 500 : 1 + rng() % 8;
    lengths.push_back(len);
    std::uint32_t v = rng() % 4;
    for (std::uint32_t j = 0; j < len; ++j) {
      values.push_back(v);
      v += 1 + rng() % 3;  // strictly ascending, small deltas
    }
  }
  expect_roundtrip(lengths, values);
}

TEST(RrrCodec, PicksACodecAndCompresses) {
  std::vector<std::uint32_t> lengths;
  std::vector<std::uint32_t> values;
  for (std::uint32_t s = 0; s < 512; ++s) {
    lengths.push_back(8);
    for (std::uint32_t j = 0; j < 8; ++j) values.push_back(s * 16 + j);
  }
  const std::vector<std::uint8_t> frame = rrr_block_encode(lengths, values);
  const std::uint8_t codec = rrr_block_codec(frame);
  EXPECT_TRUE(codec == kRrrBlockCodecVarint || codec == kRrrBlockCodecHuffman);
  // Delta + entropy coding must beat the raw u32 representation.
  EXPECT_LT(frame.size(), values.size() * sizeof(std::uint32_t));
}

TEST(RrrCodec, EveryBitFlipIsDetected) {
  // Flip one bit at every byte position of a small frame: decode must either
  // throw (CRC or framing) — never silently return different sets.
  const std::vector<std::uint32_t> lengths = {3, 2};
  const std::vector<std::uint32_t> values = {1, 5, 9, 0, 4};
  const std::vector<std::uint8_t> frame = rrr_block_encode(lengths, values);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    std::vector<std::uint8_t> torn = frame;
    torn[i] ^= 0x10u;
    try {
      (void)rrr_block_decode(torn);
      FAIL() << "bit flip at byte " << i << " went undetected";
    } catch (const IoError&) {
      // Detected — the quarantine path in the tiered store takes over.
    }
  }
}

TEST(RrrCodec, PayloadCorruptionNamesTheCrc) {
  const std::vector<std::uint32_t> lengths = {4};
  const std::vector<std::uint32_t> values = {2, 7, 8, 30};
  std::vector<std::uint8_t> frame = rrr_block_encode(lengths, values);
  frame.back() ^= 0x40u;  // payload byte: framing intact, checksum not
  try {
    (void)rrr_block_decode(frame);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC-32C mismatch"), std::string::npos);
  }
}

TEST(RrrCodec, TruncationThrows) {
  const std::vector<std::uint32_t> lengths = {3};
  const std::vector<std::uint32_t> values = {10, 20, 30};
  const std::vector<std::uint8_t> frame = rrr_block_encode(lengths, values);
  for (const std::size_t keep : {std::size_t{0}, std::size_t{4}, frame.size() - 1}) {
    EXPECT_THROW(
        (void)rrr_block_decode(std::span(frame.data(), keep)), IoError)
        << "kept " << keep << " bytes";
  }
}

TEST(RrrCodec, BadMagicThrows) {
  std::vector<std::uint8_t> frame =
      rrr_block_encode(std::vector<std::uint32_t>{1}, std::vector<std::uint32_t>{9});
  frame[0] = 'X';
  EXPECT_THROW((void)rrr_block_decode(frame), IoError);
}

void put_le(std::vector<std::uint8_t>& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// A Huffman-codec frame for one set of one value whose CRC matches its
/// (forged) payload, so only the size checks stand between the decoder and
/// the claimed counts.
std::vector<std::uint8_t> forged_huffman_frame(std::uint32_t num_codes,
                                               std::uint64_t num_symbols) {
  std::vector<std::uint8_t> payload = {1};  // lengths section: varint 1
  put_le(payload, num_codes, 4);
  put_le(payload, 0, 4);  // one real entry: symbol 0, 1-bit code
  payload.push_back(1);
  put_le(payload, num_symbols, 8);
  put_le(payload, 1, 8);  // one payload byte
  payload.push_back(0);

  std::vector<std::uint8_t> frame(kRrrBlockMagic.begin(), kRrrBlockMagic.end());
  frame.push_back(kRrrBlockCodecHuffman);
  put_le(frame, 1, 8);  // num_sets
  put_le(frame, 1, 8);  // num_values
  put_le(frame, 1, 8);  // lengths_bytes
  put_le(frame, payload.size(), 8);
  put_le(frame, support::crc32c(payload), 4);
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

TEST(RrrCodec, ForgedHuffmanFrameDecodes) {
  // The forging helper itself is sound: honest counts round-trip.
  const DecodedRrrBlock block = rrr_block_decode(forged_huffman_frame(1, 1));
  EXPECT_EQ(block.lengths, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(block.values, (std::vector<std::uint32_t>{0}));
}

TEST(RrrCodec, ClaimedHuffmanCodeCountCannotSizeAnAllocation) {
  // 2^32-1 table entries would reserve ~20 GB; the payload holds one.
  EXPECT_THROW((void)rrr_block_decode(forged_huffman_frame(0xFFFFFFFFu, 1)), IoError);
}

TEST(RrrCodec, ClaimedHuffmanSymbolCountCannotSizeAnAllocation) {
  EXPECT_THROW((void)rrr_block_decode(forged_huffman_frame(1, std::uint64_t{1} << 62)),
               IoError);
}

}  // namespace
}  // namespace eim::encoding
