#include "eim/encoding/huffman.hpp"

#include <algorithm>
#include <array>

#include "eim/support/bits.hpp"
#include "eim/support/error.hpp"

namespace eim::encoding {

namespace {

/// Symbols below this are counted and looked up in a direct-indexed table
/// (16 KB, cache-resident) — on spill blocks that is nearly every gap-coded
/// member; larger ones (a set's absolute first member on a big graph, the
/// rare long jump) are sorted instead.
constexpr std::uint64_t kDenseSymbols = std::uint64_t{1} << 12;

/// MSB-first bit writer into a buffer sized up front. Codes collect in a
/// 64-bit accumulator that is flushed 32 bits at a time.
class BitWriter {
 public:
  explicit BitWriter(std::uint64_t bytes) : bytes_(bytes, 0) {}

  /// Append the low `length` bits (1..64) of `code`.
  void put(std::uint64_t code, unsigned length) {
    if (length > 32) {
      put_short(code >> 32, length - 32);
      length = 32;
    }
    put_short(code & ((std::uint64_t{1} << length) - 1), length);
  }

  /// Flush the partial tail (zero-padded) and hand the bytes over.
  [[nodiscard]] std::vector<std::uint8_t> take() {
    if (fill_ > 0) {
      const std::uint64_t tail = acc_ << (64 - fill_);
      for (unsigned b = 0; b < fill_; b += 8) {
        bytes_[at_++] = static_cast<std::uint8_t>(tail >> (56 - b));
      }
    }
    EIM_CHECK_MSG(at_ == bytes_.size(), "huffman payload size mispriced");
    return std::move(bytes_);
  }

 private:
  // length <= 32 and fill_ < 32 on entry, so the accumulator never overflows.
  void put_short(std::uint64_t code, unsigned length) {
    acc_ = (acc_ << length) | code;
    fill_ += length;
    if (fill_ >= 32) {
      fill_ -= 32;
      const auto word = static_cast<std::uint32_t>(acc_ >> fill_);
      for (int b = 3; b >= 0; --b) {
        bytes_[at_++] = static_cast<std::uint8_t>(word >> (8 * b));
      }
    }
  }

  std::vector<std::uint8_t> bytes_;
  std::size_t at_ = 0;
  std::uint64_t acc_ = 0;
  unsigned fill_ = 0;
};

/// Code lengths for `counts` (one per alphabet entry) by the two-queue
/// merge; returns the payload bits, the sum of the merge weights.
///
/// Ties are broken so the tree is fixed by the counts alone: leaves enter
/// in (count, alphabet index) order, merged nodes queue in creation order
/// (their weights never decrease), and a leaf is taken before a merged node
/// of equal weight. The canonical code, and so every encoded byte, depends
/// on this order.
std::uint64_t merge_lengths(const std::vector<std::uint64_t>& counts,
                            std::vector<std::uint8_t>& lengths) {
  const std::size_t a = counts.size();
  lengths.assign(a, 1);
  if (a == 1) return counts[0];  // degenerate alphabet: one bit per symbol

  // Leaves in (count, alphabet index) order: a stable LSD radix sort on
  // the count, one byte per pass, as many passes as the largest count needs
  // (one or two on spill blocks). A comparison sort of the same keys costs
  // more than the whole counting pass, most of it in mispredicted branches.
  std::vector<std::uint32_t> leaves(a);
  std::vector<std::uint32_t> sorted(a);
  for (std::size_t i = 0; i < a; ++i) leaves[i] = static_cast<std::uint32_t>(i);
  const std::uint64_t max_count = *std::max_element(counts.begin(), counts.end());
  for (unsigned shift = 0; (max_count >> shift) != 0; shift += 8) {
    std::array<std::size_t, 257> start{};
    for (const std::uint32_t i : leaves) ++start[((counts[i] >> shift) & 0xFFu) + 1];
    for (std::size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
    for (const std::uint32_t i : leaves) sorted[start[(counts[i] >> shift) & 0xFFu]++] = i;
    leaves.swap(sorted);
  }

  // Node ids: leaves are their alphabet index, merged node m is a + m.
  std::vector<std::uint64_t> merged(a - 1);
  std::vector<std::size_t> parent(2 * a - 1);
  std::size_t made = 0;
  std::size_t next_leaf = 0;
  std::size_t next_merged = 0;
  const auto pop = [&](std::uint64_t& weight) -> std::size_t {
    if (next_leaf < a &&
        (next_merged == made || counts[leaves[next_leaf]] <= merged[next_merged])) {
      weight = counts[leaves[next_leaf]];
      return leaves[next_leaf++];
    }
    weight = merged[next_merged];
    return a + next_merged++;
  };
  std::uint64_t bits = 0;
  while (made + 1 < a) {
    std::uint64_t wx = 0;
    std::uint64_t wy = 0;
    const std::size_t x = pop(wx);
    const std::size_t y = pop(wy);
    parent[x] = parent[y] = a + made;
    merged[made++] = wx + wy;
    bits += wx + wy;
  }

  // Every node's parent has a larger id, so one descending pass assigns
  // depths root (id 2a - 2, depth 0) first.
  std::vector<std::uint8_t> depth(2 * a - 1, 0);
  for (std::size_t node = 2 * a - 2; node-- > 0;) {
    depth[node] = static_cast<std::uint8_t>(depth[parent[node]] + 1);
  }
  std::copy(depth.begin(), depth.begin() + static_cast<std::ptrdiff_t>(a),
            lengths.begin());
  return bits;
}

}  // namespace

HuffmanCode::HuffmanCode(std::span<const std::uint32_t> values)
    : num_values_(values.size()) {
  if (values.empty()) return;
  EIM_CHECK_MSG(values.size() <= UINT32_MAX, "huffman block over 2^32 - 1 values");

  // One counting pass: small symbols into the flat table, the rest aside.
  const std::uint32_t max = *std::max_element(values.begin(), values.end());
  dense_.assign(std::min<std::uint64_t>(std::uint64_t{max} + 1, kDenseSymbols), 0);
  std::vector<std::uint32_t> wide;
  for (const std::uint32_t v : values) {
    if (v < dense_.size()) {
      ++dense_[v];
    } else {
      wide.push_back(v);
    }
  }

  // Alphabet, ascending: the table's occupied slots, then the sorted wide
  // symbols run-length counted. The table switches from counts to indices.
  std::vector<std::uint64_t> counts;
  for (std::size_t s = 0; s < dense_.size(); ++s) {
    if (dense_[s] == 0) continue;
    counts.push_back(dense_[s]);
    dense_[s] = static_cast<std::uint32_t>(symbols_.size());
    symbols_.push_back(static_cast<std::uint32_t>(s));
  }
  wide_begin_ = symbols_.size();
  std::sort(wide.begin(), wide.end());
  for (std::size_t i = 0; i < wide.size(); ++i) {
    if (i > 0 && wide[i] == wide[i - 1]) {
      ++counts.back();
    } else {
      symbols_.push_back(wide[i]);
      counts.push_back(1);
    }
  }

  payload_bits_ = merge_lengths(counts, lengths_);
}

std::size_t HuffmanCode::index_of(std::uint32_t symbol) const {
  if (symbol < dense_.size()) return dense_[symbol];
  const auto wide = symbols_.begin() + static_cast<std::ptrdiff_t>(wide_begin_);
  return static_cast<std::size_t>(
      std::lower_bound(wide, symbols_.end(), symbol) - symbols_.begin());
}

HuffmanBlock HuffmanCode::encode(std::span<const std::uint32_t> values) const {
  EIM_CHECK_MSG(values.size() == num_values_, "huffman code built for other values");
  HuffmanBlock block;
  block.num_symbols = values.size();
  if (values.empty()) return block;

  // Canonical order is (length, symbol); the alphabet is already ascending,
  // so a stable sort by length gives it.
  std::vector<std::size_t> canon(symbols_.size());
  for (std::size_t i = 0; i < canon.size(); ++i) canon[i] = i;
  std::stable_sort(canon.begin(), canon.end(),
                   [&](std::size_t a, std::size_t b) { return lengths_[a] < lengths_[b]; });

  // Canonical code assignment, kept per alphabet index for the lookup.
  block.symbols.reserve(canon.size());
  block.lengths.reserve(canon.size());
  std::vector<std::uint64_t> codes(symbols_.size());
  std::uint64_t code = 0;
  std::uint8_t prev_len = lengths_[canon.front()];
  for (const std::size_t i : canon) {
    block.symbols.push_back(symbols_[i]);
    block.lengths.push_back(lengths_[i]);
    code <<= (lengths_[i] - prev_len);
    codes[i] = code++;
    prev_len = lengths_[i];
  }

  BitWriter writer(support::div_ceil<std::uint64_t>(payload_bits_, 8));
  for (const std::uint32_t v : values) {
    const std::size_t i = index_of(v);
    writer.put(codes[i], lengths_[i]);
  }
  block.bits = writer.take();
  return block;
}

HuffmanBlock huffman_encode(std::span<const std::uint32_t> values) {
  return HuffmanCode(values).encode(values);
}

std::vector<std::uint32_t> huffman_decode(const HuffmanBlock& block) {
  // Every code is at least one bit long, so a symbol count beyond the
  // payload's bit length is corrupt: reject it before it sizes `out`.
  if (block.num_symbols > static_cast<std::uint64_t>(block.bits.size()) * 8) {
    throw support::IoError("huffman block: symbol count exceeds payload bits");
  }
  std::vector<std::uint32_t> out;
  out.reserve(block.num_symbols);
  if (block.num_symbols == 0) return out;
  EIM_CHECK_MSG(!block.symbols.empty(), "huffman block missing code table");
  // The per-length tables are sized by the last (longest) length.
  if (block.lengths.size() != block.symbols.size() ||
      !std::is_sorted(block.lengths.begin(), block.lengths.end())) {
    throw support::IoError("huffman block: corrupt code table");
  }

  // Canonical decode tables: for each length, the first code and the index
  // of its first symbol.
  const std::uint8_t max_len = block.lengths.back();
  std::vector<std::uint64_t> first_code(max_len + 2, 0);
  std::vector<std::size_t> first_index(max_len + 2, 0);
  std::vector<std::size_t> count(max_len + 2, 0);
  for (const std::uint8_t len : block.lengths) ++count[len];
  std::uint64_t code = 0;
  std::size_t index = 0;
  for (std::uint8_t len = 1; len <= max_len; ++len) {
    first_code[len] = code;
    first_index[len] = index;
    code = (code + count[len]) << 1;
    index += count[len];
  }

  std::uint64_t acc = 0;
  std::uint8_t acc_len = 0;
  std::size_t bit_pos = 0;
  const std::uint64_t total_bits = static_cast<std::uint64_t>(block.bits.size()) * 8;
  while (out.size() < block.num_symbols) {
    if (bit_pos >= total_bits) throw support::IoError("truncated huffman stream");
    const std::uint8_t byte = block.bits[bit_pos >> 3];
    const unsigned bit = (byte >> (7 - (bit_pos & 7))) & 1u;
    ++bit_pos;
    acc = (acc << 1) | bit;
    ++acc_len;
    if (acc_len > max_len) throw support::IoError("corrupt huffman stream");
    const std::uint64_t offset = acc - first_code[acc_len];
    if (acc_len >= block.lengths.front() && offset < count[acc_len]) {
      out.push_back(block.symbols[first_index[acc_len] + offset]);
      acc = 0;
      acc_len = 0;
    }
  }
  return out;
}

}  // namespace eim::encoding
