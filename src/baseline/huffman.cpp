#include "baseline/huffman.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "io/error.hpp"

namespace aic::baseline {
namespace {

struct TreeNode {
  std::uint64_t weight;
  int symbol;  // -1 for internal
  int left = -1, right = -1;
};

/// Iterative depth-first walk assigning code lengths (explicit stack: a
/// pathological histogram can produce a tree as deep as the alphabet,
/// which would overflow the call stack recursively). Returns the
/// maximum depth encountered.
std::size_t assign_lengths(const std::vector<TreeNode>& nodes, int root,
                           std::vector<std::uint8_t>& lengths) {
  std::size_t max_depth = 0;
  std::vector<std::pair<int, std::size_t>> stack{{root, 0}};
  while (!stack.empty()) {
    const auto [index, depth] = stack.back();
    stack.pop_back();
    const TreeNode& node = nodes[static_cast<std::size_t>(index)];
    if (node.symbol >= 0) {
      // A single-symbol alphabet still needs one bit.
      const std::size_t length = std::max<std::size_t>(depth, 1);
      max_depth = std::max(max_depth, length);
      if (length <= HuffmanCoder::kMaxCodeLength) {
        lengths[static_cast<std::size_t>(node.symbol)] =
            static_cast<std::uint8_t>(length);
      }
      continue;
    }
    stack.emplace_back(node.left, depth + 1);
    stack.emplace_back(node.right, depth + 1);
  }
  return max_depth;
}

/// Builds code lengths for the dense weights (0 = absent); true when
/// every length fits kMaxCodeLength (lengths is only valid then). Leaves
/// enter the heap in ascending-symbol order, which fixes the heap's
/// tie-breaking and with it every code length.
bool build_lengths(const std::vector<std::uint64_t>& weights,
                   std::vector<std::uint8_t>& lengths) {
  std::vector<TreeNode> nodes;
  nodes.reserve(2 * weights.size());
  using Entry = std::pair<std::uint64_t, int>;  // (weight, node index)
  std::vector<Entry> storage;
  storage.reserve(weights.size());
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap(
      std::greater<>{}, std::move(storage));
  for (std::size_t symbol = 0; symbol < weights.size(); ++symbol) {
    if (weights[symbol] == 0) continue;
    nodes.push_back({weights[symbol], static_cast<int>(symbol)});
    heap.emplace(weights[symbol], static_cast<int>(nodes.size()) - 1);
  }
  while (heap.size() > 1) {
    const auto [w1, i1] = heap.top();
    heap.pop();
    const auto [w2, i2] = heap.top();
    heap.pop();
    nodes.push_back({w1 + w2, -1, i1, i2});
    heap.emplace(w1 + w2, static_cast<int>(nodes.size()) - 1);
  }
  lengths.assign(weights.size(), 0);
  return assign_lengths(nodes, heap.top().second, lengths) <=
         HuffmanCoder::kMaxCodeLength;
}

std::vector<std::uint64_t> tally(const std::vector<std::uint16_t>& symbols) {
  if (symbols.empty()) {
    throw std::invalid_argument("HuffmanCoder: empty symbol stream");
  }
  const std::uint16_t max_symbol =
      *std::max_element(symbols.begin(), symbols.end());
  std::vector<std::uint64_t> counts(std::size_t{max_symbol} + 1, 0);
  for (std::uint16_t s : symbols) ++counts[s];
  return counts;
}

/// The dense form of an untrusted (symbol -> length) table. A zero
/// length means "absent" in the dense form, so it is rejected here.
std::vector<std::uint8_t> dense_lengths(
    const std::map<std::uint16_t, std::uint8_t>& lengths) {
  if (lengths.empty()) {
    throw std::invalid_argument("HuffmanCoder: empty length table");
  }
  std::vector<std::uint8_t> dense(std::size_t{lengths.rbegin()->first} + 1,
                                  0);
  for (const auto& [symbol, length] : lengths) {
    if (length == 0) {
      io::raise_corrupt(io::CorruptKind::kBadCodeTable,
                        "HuffmanCoder: code length 0 for symbol " +
                            std::to_string(symbol) + " outside [1, " +
                            std::to_string(HuffmanCoder::kMaxCodeLength) +
                            "]");
    }
    dense[symbol] = length;
  }
  return dense;
}

/// Every symbol consumes at least one bit, so a count beyond the
/// remaining bits can never be satisfied — rejected before any output
/// is sized.
void require_bits(std::size_t count, std::size_t bits) {
  if (count > bits) {
    io::raise_corrupt(io::CorruptKind::kTruncated,
                      "HuffmanCoder: " + std::to_string(count) +
                          " symbols requested but only " +
                          std::to_string(bits) + " bits remain");
  }
}

/// MSB-first 64-bit window over a byte stream. The top `count_` bits of
/// `bits_` are the next stream bits; after refill() it holds at least 57
/// of them unless the stream has fewer left. The 8-byte refill may
/// leave a prefix of the next byte below the valid bits; the next
/// refill ORs the same bits over it.
class BitWindow {
 public:
  BitWindow(const std::uint8_t* data, std::size_t size,
            std::size_t bit_offset)
      : begin_(data), next_(data + bit_offset / 8), end_(data + size),
        bit_offset_(bit_offset) {
    refill();
    consume(bit_offset % 8);
  }

  void refill() {
    if (end_ - next_ >= 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, next_, sizeof word);
      if constexpr (std::endian::native == std::endian::little) {
        word = __builtin_bswap64(word);
      }
      bits_ |= word >> count_;
      next_ += (63 - count_) >> 3;
      count_ |= 56;
    } else {
      while (count_ <= 56 && next_ < end_) {
        bits_ |= std::uint64_t{*next_++} << (56 - count_);
        count_ += 8;
      }
    }
  }

  std::size_t available() const { return count_; }
  std::uint64_t peek(std::size_t n) const { return bits_ >> (64 - n); }
  void consume(std::size_t n) {
    bits_ <<= n;
    count_ -= n;
  }
  /// Stream bits consumed since the starting offset.
  std::size_t consumed() const {
    return static_cast<std::size_t>(next_ - begin_) * 8 - count_ -
           bit_offset_;
  }

 private:
  const std::uint8_t* begin_;
  const std::uint8_t* next_;
  const std::uint8_t* end_;
  std::size_t bit_offset_;
  std::uint64_t bits_ = 0;
  std::size_t count_ = 0;
};

/// The first canonical code of each length, from the number of codes of
/// each length: a length's codes continue the previous length's range,
/// shifted left once per length step. The Kraft check guarantees every
/// code fits its length.
std::array<std::uint64_t, HuffmanCoder::kMaxCodeLength + 1> first_codes(
    const std::array<std::uint32_t, HuffmanCoder::kMaxCodeLength + 1>&
        count) {
  std::array<std::uint64_t, HuffmanCoder::kMaxCodeLength + 1> first{};
  std::uint64_t code = 0;
  for (std::size_t length = 1; length <= HuffmanCoder::kMaxCodeLength;
       ++length) {
    first[length] = code;
    code = (code + count[length]) << 1;
  }
  return first;
}

}  // namespace

HuffmanCoder::HuffmanCoder(const std::vector<std::uint16_t>& symbols)
    : HuffmanCoder(std::span<const std::uint64_t>(tally(symbols))) {}

HuffmanCoder::HuffmanCoder(std::span<const std::uint64_t> counts)
    : HuffmanCoder(from_code_lengths(code_lengths_for(counts))) {}

HuffmanCoder::HuffmanCoder(
    const std::map<std::uint16_t, std::uint8_t>& lengths)
    : HuffmanCoder(from_code_lengths(dense_lengths(lengths))) {}

std::vector<std::uint8_t> HuffmanCoder::code_lengths_for(
    std::span<const std::uint64_t> counts) {
  std::size_t alphabet = counts.size();
  while (alphabet > 0 && counts[alphabet - 1] == 0) --alphabet;
  if (alphabet == 0) {
    throw std::invalid_argument("HuffmanCoder: empty histogram");
  }
  std::vector<std::uint64_t> weights(counts.begin(),
                                     counts.begin() + alphabet);
  std::vector<std::uint8_t> lengths;
  // A sufficiently skewed histogram (Fibonacci-like weights) produces
  // code lengths beyond kMaxCodeLength, which would overflow the u32
  // canonical codes. Rebalance by halving the weights (flooring at 1)
  // until the tree fits: each pass compresses the weight ratio, and
  // all-equal weights bound the depth at ceil(log2(alphabet)) <= 16.
  while (!build_lengths(weights, lengths)) {
    for (std::uint64_t& weight : weights) {
      if (weight != 0) weight = weight / 2 + 1;
    }
  }
  return lengths;
}

HuffmanCoder HuffmanCoder::from_code_lengths(
    std::vector<std::uint8_t> lengths) {
  // Length tables may come from compressed streams — untrusted input,
  // validated before any code is derived.
  while (!lengths.empty() && lengths.back() == 0) lengths.pop_back();
  if (lengths.empty()) {
    throw std::invalid_argument("HuffmanCoder: empty length table");
  }
  std::uint64_t kraft = 0;
  for (std::size_t symbol = 0; symbol < lengths.size(); ++symbol) {
    const std::uint8_t length = lengths[symbol];
    if (length == 0) continue;
    if (length > kMaxCodeLength) {
      io::raise_corrupt(io::CorruptKind::kBadCodeTable,
                        "HuffmanCoder: code length " +
                            std::to_string(length) + " for symbol " +
                            std::to_string(symbol) + " outside [1, " +
                            std::to_string(kMaxCodeLength) + "]");
    }
    kraft += std::uint64_t{1} << (kMaxCodeLength - length);
  }
  // Kraft inequality: an over-subscribed table has no prefix-free code
  // assignment and would overflow the canonical code enumeration.
  if (kraft > (std::uint64_t{1} << kMaxCodeLength)) {
    io::raise_corrupt(io::CorruptKind::kBadCodeTable,
                      "HuffmanCoder: length table violates the Kraft "
                      "inequality (over-subscribed)");
  }
  HuffmanCoder coder;
  coder.length_ = std::move(lengths);
  coder.build_tables();
  return coder;
}

void HuffmanCoder::build_tables() {
  // Canonical ordering is by (length, symbol): a counting sort by length
  // over the ascending symbols.
  length_count_.fill(0);
  for (std::uint8_t length : length_) {
    if (length != 0) ++length_count_[length];
  }
  std::uint32_t index = 0;
  for (std::size_t length = 1; length <= kMaxCodeLength; ++length) {
    first_index_[length] = index;
    index += length_count_[length];
  }
  sorted_symbols_.resize(index);
  std::array<std::uint32_t, kMaxCodeLength + 1> fill = first_index_;
  for (std::size_t symbol = 0; symbol < length_.size(); ++symbol) {
    if (length_[symbol] != 0) {
      sorted_symbols_[fill[length_[symbol]]++] =
          static_cast<std::uint16_t>(symbol);
    }
  }

  first_code_ = first_codes(length_count_);
  code_ = canonical_codes(length_);
  build_decode_lut();
}

std::vector<std::uint32_t> HuffmanCoder::canonical_codes(
    std::span<const std::uint8_t> lengths) {
  std::array<std::uint32_t, kMaxCodeLength + 1> count{};
  for (std::uint8_t length : lengths) {
    if (length != 0) ++count[length];
  }
  std::array<std::uint64_t, kMaxCodeLength + 1> next = first_codes(count);
  std::vector<std::uint32_t> codes(lengths.size(), 0);
  for (std::size_t symbol = 0; symbol < lengths.size(); ++symbol) {
    if (lengths[symbol] != 0) {
      codes[symbol] = static_cast<std::uint32_t>(next[lengths[symbol]]++);
    }
  }
  return codes;
}

void HuffmanCoder::build_decode_lut() {
  // Pass 1: every window whose top bits spell a whole code of length
  // <= kLutBits resolves its first symbol. Canonical codes of length L
  // own the contiguous window range [code << (W-L), (code+1) << (W-L)).
  decode_lut_.assign(std::size_t{1} << kLutBits, LutEntry{});
  for (std::size_t length = 1; length <= kLutBits; ++length) {
    const std::size_t shift = kLutBits - length;
    for (std::uint32_t k = 0; k < length_count_[length]; ++k) {
      const std::uint16_t symbol = sorted_symbols_[first_index_[length] + k];
      const std::size_t first =
          static_cast<std::size_t>(first_code_[length] + k) << shift;
      const std::size_t last = first + (std::size_t{1} << shift);
      for (std::size_t window = first; window < last; ++window) {
        decode_lut_[window].symbols[0] = symbol;
        decode_lut_[window].count = 1;
        decode_lut_[window].bits = static_cast<std::uint8_t>(length);
      }
    }
  }
  // Pass 2: when the remaining window bits start another whole code, the
  // same lookup yields a second symbol. The sub-window zero-pads the bits
  // beyond the window, which is safe exactly when the second code fits in
  // the leftover width (its LUT entry then depends only on known bits).
  // The second code's own length comes from length_, not from its entry,
  // which this pass may already have upgraded to two symbols.
  const std::size_t mask = (std::size_t{1} << kLutBits) - 1;
  for (std::size_t window = 0; window < decode_lut_.size(); ++window) {
    LutEntry& entry = decode_lut_[window];
    if (entry.count != 1) continue;
    const std::size_t first_bits = entry.bits;
    const LutEntry& next = decode_lut_[(window << first_bits) & mask];
    if (next.count == 0) continue;
    const std::size_t next_bits = length_[next.symbols[0]];
    if (first_bits + next_bits <= kLutBits) {
      entry.symbols[1] = next.symbols[0];
      entry.count = 2;
      entry.bits = static_cast<std::uint8_t>(first_bits + next_bits);
    }
  }
}

void HuffmanCoder::encode(const std::vector<std::uint16_t>& symbols,
                          BitWriter& writer) const {
  for (std::uint16_t s : symbols) {
    if (s >= length_.size() || length_[s] == 0) {
      throw std::invalid_argument("HuffmanCoder: symbol not in code");
    }
    writer.write_bits(code_[s], length_[s]);
  }
}

template <typename Symbol>
std::size_t HuffmanCoder::decode_window(const std::uint8_t* data,
                                        std::size_t size,
                                        std::size_t bit_offset,
                                        std::size_t count,
                                        Symbol* __restrict out) const {
  BitWindow window(data, size, bit_offset);
  // Exact bit-walk: codes longer than the LUT window and the stream tail.
  const auto walk = [&]() -> Symbol {
    window.refill();
    std::uint64_t code = 0;
    for (std::size_t length = 1;; ++length) {
      if (window.available() == 0) {
        io::raise_corrupt(io::CorruptKind::kTruncated,
                          "HuffmanCoder: code runs past end of stream");
      }
      code = (code << 1) | window.peek(1);
      window.consume(1);
      const std::uint64_t rank = code - first_code_[length];
      if (rank < length_count_[length]) {
        return static_cast<Symbol>(
            sorted_symbols_[first_index_[length] + rank]);
      }
      if (length >= kMaxCodeLength) {
        io::raise_corrupt(io::CorruptKind::kBadSymbol,
                          "HuffmanCoder: bitstream walks past the longest "
                          "code without matching a symbol");
      }
    }
  };

  std::size_t i = 0;
  // Bulk: a refilled window holds five LUT windows' worth of bits, and
  // with ten symbols still wanted every lookup may store both of its
  // slots — a one-symbol entry's second slot is overwritten next.
  while (count - i >= 10) {
    window.refill();
    if (window.available() < 5 * kLutBits) break;
    for (int lookup = 0; lookup < 5; ++lookup) {
      const LutEntry& entry = decode_lut_[window.peek(kLutBits)];
      if (entry.count == 0) {
        out[i++] = walk();
        break;
      }
      out[i] = static_cast<Symbol>(entry.symbols[0]);
      out[i + 1] = static_cast<Symbol>(entry.symbols[1]);
      i += entry.count;
      window.consume(entry.bits);
    }
  }
  // Tail: the last few symbols and the stream's final bits.
  while (i < count) out[i++] = walk();
  return window.consumed();
}

std::vector<std::uint16_t> HuffmanCoder::decode(BitReader& reader,
                                                std::size_t count) const {
  require_bits(count, reader.bits_remaining());
  std::vector<std::uint16_t> symbols(count);
  const std::vector<std::uint8_t>& bytes = reader.bytes();
  reader.skip_bits(decode_window(bytes.data(), bytes.size(),
                                 reader.position(), count, symbols.data()));
  return symbols;
}

std::size_t HuffmanCoder::decode_bytes(std::string_view bits,
                                       std::size_t count,
                                       std::uint8_t* out) const {
  if (length_.size() > 256) {
    throw std::logic_error("HuffmanCoder: decode_bytes needs symbols < 256");
  }
  require_bits(count, bits.size() * 8);
  return decode_window(reinterpret_cast<const std::uint8_t*>(bits.data()),
                       bits.size(), 0, count, out);
}

std::map<std::uint16_t, std::uint8_t> HuffmanCoder::lengths() const {
  std::map<std::uint16_t, std::uint8_t> table;
  for (std::size_t symbol = 0; symbol < length_.size(); ++symbol) {
    if (length_[symbol] != 0) {
      table.emplace_hint(table.end(), static_cast<std::uint16_t>(symbol),
                         length_[symbol]);
    }
  }
  return table;
}

std::size_t HuffmanCoder::encoded_bits(
    const std::vector<std::uint16_t>& symbols) const {
  std::size_t bits = 0;
  for (std::uint16_t s : symbols) {
    if (s >= length_.size() || length_[s] == 0) {
      throw std::out_of_range("HuffmanCoder: symbol not in code");
    }
    bits += length_[s];
  }
  return bits;
}

}  // namespace aic::baseline
