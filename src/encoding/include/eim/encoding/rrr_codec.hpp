// Compressed, self-verifying RRR spill-block codec.
//
// A spill block packs a batch of decoded RRR sets into one frame for the
// tiered store's host and disk tiers (docs/RESILIENCE.md "Memory-pressure
// tiers"): per-set lengths, then every member delta-transformed — each set
// is strictly ascending, so `v[0], v[j]-v[j-1]-1, ...` are small symbols —
// and encoded with whichever of the two CPU-side codecs the paper positions
// log encoding against yields the smaller payload: LEB128 varint or
// canonical Huffman (HBMax's choice for host-resident RRR storage,
// arXiv:2208.00613). Both sections are priced exactly before either is
// built — varint from per-value byte counts, Huffman from one frequency
// pass and its merge (HuffmanCode) — and only the smaller is written; a
// tie keeps varint. On spill blocks of real RRR sets the Huffman code
// table alone usually outweighs its savings, so pricing first skips a
// build that would be thrown away. A CRC-32C over the payload makes torn
// or bit-flipped blocks detectable on the way back up; the store
// quarantines and resamples a failing block instead of trusting it.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace eim::encoding {

inline constexpr std::string_view kRrrBlockMagic = "EIMSPIL1";
inline constexpr std::uint8_t kRrrBlockCodecVarint = 0;
inline constexpr std::uint8_t kRrrBlockCodecHuffman = 1;

struct DecodedRrrBlock {
  std::vector<std::uint32_t> lengths;  ///< one entry per set
  std::vector<std::uint32_t> values;   ///< concatenated sets, each ascending
};

/// Encode a batch of sets (`values` holds the concatenation of `lengths`
/// ascending runs) into one framed block.
[[nodiscard]] std::vector<std::uint8_t> rrr_block_encode(
    std::span<const std::uint32_t> lengths, std::span<const std::uint32_t> values);

/// Decode a framed block. Throws support::IoError on bad magic, truncation,
/// or CRC mismatch (the message names the CRC so callers can distinguish
/// corruption from framing bugs).
[[nodiscard]] DecodedRrrBlock rrr_block_decode(std::span<const std::uint8_t> bytes);

/// Which values codec the frame chose (exposed for tests and metrics).
[[nodiscard]] std::uint8_t rrr_block_codec(std::span<const std::uint8_t> bytes);

}  // namespace eim::encoding
