#include "eim/encoding/huffman.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "eim/support/error.hpp"
#include "eim/support/rng.hpp"

namespace eim::encoding {
namespace {

TEST(Huffman, EmptyInput) {
  const HuffmanBlock block = huffman_encode({});
  EXPECT_EQ(block.num_symbols, 0u);
  EXPECT_TRUE(huffman_decode(block).empty());
}

TEST(Huffman, SingleSymbolAlphabet) {
  const std::vector<std::uint32_t> values(50, 7);
  const HuffmanBlock block = huffman_encode(values);
  EXPECT_EQ(huffman_decode(block), values);
  // 50 one-bit codes -> 7 payload bytes.
  EXPECT_EQ(block.payload_bytes(), 7u);
}

TEST(Huffman, TwoSymbolRoundTrip) {
  std::vector<std::uint32_t> values;
  for (int i = 0; i < 100; ++i) values.push_back(i % 3 == 0 ? 5u : 9u);
  EXPECT_EQ(huffman_decode(huffman_encode(values)), values);
}

TEST(Huffman, SkewedDistributionBeatsFixedWidth) {
  // 90% of entries are one hub id: entropy far below 32 (or even 14) bits.
  support::RandomStream rng(1, 1);
  std::vector<std::uint32_t> values;
  for (int i = 0; i < 20'000; ++i) {
    values.push_back(rng.next_double() < 0.9 ? 3u : rng.next_below(1u << 14));
  }
  const HuffmanBlock block = huffman_encode(values);
  EXPECT_EQ(huffman_decode(block), values);
  // Fixed 14-bit packing needs 35 KB; Huffman should be well under.
  EXPECT_LT(block.total_bytes(), 20'000u * 14 / 8);
}

TEST(Huffman, UniformDistributionRoundTrips) {
  support::RandomStream rng(2, 2);
  std::vector<std::uint32_t> values(5000);
  for (auto& v : values) v = rng.next_below(1u << 12);
  EXPECT_EQ(huffman_decode(huffman_encode(values)), values);
}

TEST(Huffman, DeterministicBlocks) {
  support::RandomStream rng(3, 3);
  std::vector<std::uint32_t> values(1000);
  for (auto& v : values) v = rng.next_below(64);
  const HuffmanBlock a = huffman_encode(values);
  const HuffmanBlock b = huffman_encode(values);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.symbols, b.symbols);
}

TEST(Huffman, TruncatedStreamThrows) {
  std::vector<std::uint32_t> values(100);
  support::RandomStream rng(4, 4);
  for (auto& v : values) v = rng.next_below(200);
  HuffmanBlock block = huffman_encode(values);
  block.bits.resize(block.bits.size() / 4);
  EXPECT_THROW((void)huffman_decode(block), support::IoError);
}

TEST(Huffman, CanonicalLengthsAreSorted) {
  support::RandomStream rng(5, 5);
  std::vector<std::uint32_t> values(3000);
  for (auto& v : values) v = rng.next_below(100) * rng.next_below(100);
  const HuffmanBlock block = huffman_encode(values);
  EXPECT_TRUE(std::is_sorted(block.lengths.begin(), block.lengths.end()));
}

TEST(Huffman, SymbolCountBeyondPayloadBitsThrows) {
  HuffmanBlock block = huffman_encode(std::vector<std::uint32_t>{1, 2, 2, 3});
  block.num_symbols = std::uint64_t{1} << 62;
  EXPECT_THROW((void)huffman_decode(block), support::IoError);
}

TEST(Huffman, UnsortedCodeLengthsThrow) {
  // The decode tables are sized by the last length; a longer one earlier
  // in a corrupt table must be rejected, not indexed past them.
  std::vector<std::uint32_t> values;  // frequencies 1, 2, 4, 8, 16
  for (std::uint32_t sym = 0; sym < 5; ++sym) values.insert(values.end(), 1u << sym, sym);
  HuffmanBlock block = huffman_encode(values);
  ASSERT_GE(block.lengths.back(), block.lengths.front() + 2);
  std::swap(block.lengths.front(), block.lengths.back());
  EXPECT_THROW((void)huffman_decode(block), support::IoError);
}

TEST(Huffman, WideSymbolsRoundTrip) {
  // Symbols past the flat counting table (>= 2^16) and >= 2^31, mixed with
  // small ones.
  support::RandomStream rng(6, 6);
  std::vector<std::uint32_t> values(4000);
  for (auto& v : values) {
    const std::uint32_t pick = rng.next_below(4);
    v = pick == 0 ? rng.next_below(100)
        : pick == 1 ? (1u << 16) + rng.next_below(50)
        : pick == 2 ? 0xFFFF'FFFFu - rng.next_below(3)
                    : 0x8000'0000u;
  }
  EXPECT_EQ(huffman_decode(huffman_encode(values)), values);
}

TEST(Huffman, PriceMatchesTheEncodedBlock) {
  // HuffmanCode prices a block before encoding it: the table size and the
  // payload bytes must be exactly what encode() then writes.
  support::RandomStream rng(8, 8);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint32_t> values(1 + rng.next_below(3000));
    const std::uint32_t kind = static_cast<std::uint32_t>(trial % 4);
    const std::uint32_t alphabet = 1 + rng.next_below(2000);
    for (auto& v : values) {
      const std::uint32_t u = rng.next_below(alphabet);
      v = kind == 0   ? u                                 // uniform
          : kind == 1 ? u * u / alphabet                  // skewed toward 0
          : kind == 2 ? 9u                                // one symbol
                      : u * 2'000'003u;                   // wide symbols
    }
    const HuffmanCode code(values);
    const HuffmanBlock block = code.encode(values);
    ASSERT_EQ(code.alphabet_size(), block.symbols.size()) << "trial " << trial;
    ASSERT_EQ((code.payload_bits() + 7) / 8, block.bits.size()) << "trial " << trial;
    ASSERT_EQ(huffman_decode(block), values) << "trial " << trial;
  }
}

class HuffmanFuzz : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(HuffmanFuzz, RandomAlphabetsRoundTrip) {
  support::RandomStream rng(77, GetParam());
  const std::uint32_t alphabet = 1 + rng.next_below(500);
  std::vector<std::uint32_t> values(200 + rng.next_below(3000));
  for (auto& v : values) v = rng.next_below(alphabet);
  EXPECT_EQ(huffman_decode(huffman_encode(values)), values);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HuffmanFuzz, ::testing::Range(0u, 12u));

}  // namespace
}  // namespace eim::encoding
