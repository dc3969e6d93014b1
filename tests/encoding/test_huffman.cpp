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
