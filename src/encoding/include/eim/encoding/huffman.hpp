// Canonical Huffman codec over 32-bit symbols.
//
// One of the two CPU-side RRR-set compressors the paper positions log
// encoding against (§3.1, citing HBMax): Huffman reaches better ratios on
// skewed vertex-frequency distributions (hubs appear in many RRR sets) but
// decodes bit-serially with data-dependent branches and offers no O(1)
// random access — exactly why it stays on the CPU while log encoding runs
// on the GPU. The ablation bench quantifies both sides of that trade.
//
// Encoding is split in two so a caller can price a block before paying for
// it: HuffmanCode counts the symbols in one pass over a flat table and runs
// the merge, which fixes the exact payload size; encode() then writes the
// bits. The spill-block codec (rrr_codec.hpp) prices Huffman against varint
// this way and builds only the smaller section.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace eim::encoding {

/// A Huffman-compressed block of symbols.
struct HuffmanBlock {
  /// Canonical code description: symbols sorted by (length, symbol).
  std::vector<std::uint32_t> symbols;
  /// Code length per symbol in `symbols` (same order, non-decreasing).
  std::vector<std::uint8_t> lengths;
  /// Bit-packed payload.
  std::vector<std::uint8_t> bits;
  std::uint64_t num_symbols = 0;

  [[nodiscard]] std::uint64_t payload_bytes() const noexcept { return bits.size(); }
  /// Total footprint: payload plus the code table (symbol + length each).
  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    return bits.size() + symbols.size() * (sizeof(std::uint32_t) + 1);
  }
};

/// The canonical Huffman code of one block of values: alphabet, code
/// lengths and exact payload size, known before a single bit is written.
/// Deterministic: equal inputs give equal codes.
class HuffmanCode {
 public:
  /// Count `values` and build the code. At most 2^32 - 1 values.
  explicit HuffmanCode(std::span<const std::uint32_t> values);

  /// Distinct symbols (entries in the serialized code table).
  [[nodiscard]] std::size_t alphabet_size() const noexcept { return symbols_.size(); }
  /// Payload bits the values encode to: the sum of the Huffman merge
  /// weights (any optimal code's total), or one bit per value for a
  /// single-symbol alphabet.
  [[nodiscard]] std::uint64_t payload_bits() const noexcept { return payload_bits_; }

  /// Encode `values`, which must be the span this code was built from.
  [[nodiscard]] HuffmanBlock encode(std::span<const std::uint32_t> values) const;

 private:
  /// Position of `symbol` (which must occur) in `symbols_`.
  [[nodiscard]] std::size_t index_of(std::uint32_t symbol) const;

  std::uint64_t num_values_ = 0;
  std::vector<std::uint32_t> symbols_;  ///< alphabet, ascending
  std::vector<std::uint8_t> lengths_;   ///< code length per alphabet entry
  std::uint64_t payload_bits_ = 0;
  /// Direct lookup for the small symbols: dense_[s] is the alphabet index
  /// of s for every s < dense_.size() that occurs. symbols_[wide_begin_..]
  /// are the larger ones, found by binary search.
  std::vector<std::uint32_t> dense_;
  std::size_t wide_begin_ = 0;
};

/// Build a canonical Huffman code for `values` and encode them.
/// Handles the degenerate single-symbol alphabet (1-bit codes).
[[nodiscard]] HuffmanBlock huffman_encode(std::span<const std::uint32_t> values);

/// Decode the whole block. Throws IoError on a corrupt stream.
[[nodiscard]] std::vector<std::uint32_t> huffman_decode(const HuffmanBlock& block);

}  // namespace eim::encoding
