#include "eim/encoding/huffman.hpp"

#include <algorithm>
#include <queue>

#include "eim/support/error.hpp"

namespace eim::encoding {

namespace {

/// Writer that appends bits MSB-first into a byte vector.
class BitWriter {
 public:
  void put(std::uint64_t code, std::uint8_t length) {
    for (int b = length - 1; b >= 0; --b) {
      if (bit_ == 0) bytes_.push_back(0);
      if ((code >> b) & 1u) bytes_.back() |= static_cast<std::uint8_t>(1u << (7 - bit_));
      bit_ = (bit_ + 1) & 7;
    }
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
  unsigned bit_ = 0;
};

/// Compute code lengths with the classic two-queue Huffman construction.
std::vector<std::uint8_t> code_lengths(const std::vector<std::uint64_t>& freqs) {
  struct Node {
    std::uint64_t weight;
    int left = -1, right = -1;
    int symbol = -1;
  };
  std::vector<Node> nodes;
  using HeapItem = std::pair<std::uint64_t, int>;  // (weight, node id)
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    nodes.push_back(Node{freqs[s], -1, -1, static_cast<int>(s)});
    heap.emplace(freqs[s], static_cast<int>(s));
  }
  while (heap.size() > 1) {
    const auto [wa, a] = heap.top();
    heap.pop();
    const auto [wb, b] = heap.top();
    heap.pop();
    nodes.push_back(Node{wa + wb, a, b, -1});
    heap.emplace(wa + wb, static_cast<int>(nodes.size() - 1));
  }

  std::vector<std::uint8_t> lengths(freqs.size(), 0);
  if (freqs.size() == 1) {
    lengths[0] = 1;  // degenerate alphabet still needs one bit per symbol
    return lengths;
  }
  // Depth-first traversal assigning depths as lengths.
  std::vector<std::pair<int, std::uint8_t>> stack{{static_cast<int>(nodes.size() - 1), 0}};
  while (!stack.empty()) {
    const auto [id, depth] = stack.back();
    stack.pop_back();
    const Node& node = nodes[static_cast<std::size_t>(id)];
    if (node.symbol >= 0) {
      lengths[static_cast<std::size_t>(node.symbol)] = std::max<std::uint8_t>(1, depth);
    } else {
      stack.emplace_back(node.left, static_cast<std::uint8_t>(depth + 1));
      stack.emplace_back(node.right, static_cast<std::uint8_t>(depth + 1));
    }
  }
  return lengths;
}

}  // namespace

HuffmanBlock huffman_encode(std::span<const std::uint32_t> values) {
  HuffmanBlock block;
  block.num_symbols = values.size();
  if (values.empty()) return block;

  // Frequency table over the observed alphabet.
  std::unordered_map<std::uint32_t, std::uint64_t> freq;
  for (const std::uint32_t v : values) ++freq[v];

  std::vector<std::uint32_t> alphabet;
  std::vector<std::uint64_t> freqs;
  alphabet.reserve(freq.size());
  for (const auto& [symbol, count] : freq) {
    alphabet.push_back(symbol);
    freqs.push_back(count);
  }
  // Deterministic construction: sort the alphabet first.
  std::vector<std::size_t> order(alphabet.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return alphabet[a] < alphabet[b]; });
  {
    std::vector<std::uint32_t> a2(alphabet.size());
    std::vector<std::uint64_t> f2(freqs.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      a2[i] = alphabet[order[i]];
      f2[i] = freqs[order[i]];
    }
    alphabet.swap(a2);
    freqs.swap(f2);
  }

  const std::vector<std::uint8_t> lengths = code_lengths(freqs);

  // Canonical ordering: (length, symbol).
  std::vector<std::size_t> canon(alphabet.size());
  for (std::size_t i = 0; i < canon.size(); ++i) canon[i] = i;
  std::sort(canon.begin(), canon.end(), [&](std::size_t a, std::size_t b) {
    return lengths[a] != lengths[b] ? lengths[a] < lengths[b]
                                    : alphabet[a] < alphabet[b];
  });

  block.symbols.reserve(alphabet.size());
  block.lengths.reserve(alphabet.size());
  for (const std::size_t i : canon) {
    block.symbols.push_back(alphabet[i]);
    block.lengths.push_back(lengths[i]);
  }

  // Canonical code assignment.
  std::unordered_map<std::uint32_t, std::pair<std::uint64_t, std::uint8_t>> codes;
  std::uint64_t code = 0;
  std::uint8_t prev_len = block.lengths.empty() ? 0 : block.lengths.front();
  for (std::size_t i = 0; i < block.symbols.size(); ++i) {
    code <<= (block.lengths[i] - prev_len);
    codes[block.symbols[i]] = {code, block.lengths[i]};
    prev_len = block.lengths[i];
    ++code;
  }

  BitWriter writer;
  for (const std::uint32_t v : values) {
    const auto [c, len] = codes.at(v);
    writer.put(c, len);
  }
  block.bits = writer.take();
  return block;
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
