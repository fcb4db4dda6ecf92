// Per-chunk entropy coding of the v4 archive: byte parity with a slow
// reference of the chunk format, round trips, and typed rejection of
// malformed Huffman chunk bodies.

#include "baseline/chunk_entropy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "baseline/huffman.hpp"
#include "io/error.hpp"
#include "runtime/rng.hpp"

namespace aic::baseline {
namespace {

// ---------------------------------------------------------------------------
// Reference encoder: a std::map histogram, the same min-heap over
// (weight, node index) with leaves pushed in ascending-symbol order, the
// same weight-halving rebalance, canonical codes by (length, symbol), and
// a bit-at-a-time MSB-first writer. Slow and obviously correct.

struct RefBits {
  std::string bytes;
  std::size_t bits = 0;

  void put(std::uint64_t value, std::size_t count) {
    for (std::size_t i = count; i-- > 0;) {
      if (bits % 8 == 0) bytes.push_back('\0');
      if ((value >> i) & 1) {
        bytes.back() = static_cast<char>(bytes.back() | (0x80 >> (bits % 8)));
      }
      ++bits;
    }
  }
};

using RefLengths = std::map<std::uint16_t, std::uint8_t>;

bool ref_build(const std::map<std::uint16_t, std::uint64_t>& weights,
               RefLengths& lengths) {
  struct Node {
    std::uint64_t weight;
    int symbol;
    int left = -1, right = -1;
  };
  std::vector<Node> nodes;
  using Entry = std::pair<std::uint64_t, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (const auto& [symbol, weight] : weights) {
    nodes.push_back({weight, symbol});
    heap.emplace(weight, static_cast<int>(nodes.size()) - 1);
  }
  while (heap.size() > 1) {
    const auto [w1, i1] = heap.top();
    heap.pop();
    const auto [w2, i2] = heap.top();
    heap.pop();
    nodes.push_back({w1 + w2, -1, i1, i2});
    heap.emplace(w1 + w2, static_cast<int>(nodes.size()) - 1);
  }
  lengths.clear();
  bool fits = true;
  std::vector<std::pair<int, std::size_t>> stack{{heap.top().second, 0}};
  while (!stack.empty()) {
    const auto [index, depth] = stack.back();
    stack.pop_back();
    const Node& node = nodes[static_cast<std::size_t>(index)];
    if (node.symbol < 0) {
      stack.emplace_back(node.left, depth + 1);
      stack.emplace_back(node.right, depth + 1);
      continue;
    }
    const std::size_t length = std::max<std::size_t>(depth, 1);
    if (length > HuffmanCoder::kMaxCodeLength) fits = false;
    lengths[static_cast<std::uint16_t>(node.symbol)] =
        static_cast<std::uint8_t>(std::min<std::size_t>(length, 255));
  }
  return fits;
}

RefLengths ref_lengths(const std::vector<std::uint16_t>& symbols) {
  std::map<std::uint16_t, std::uint64_t> histogram;
  for (std::uint16_t s : symbols) ++histogram[s];
  RefLengths lengths;
  while (!ref_build(histogram, lengths)) {
    for (auto& [symbol, weight] : histogram) weight = weight / 2 + 1;
  }
  return lengths;
}

std::map<std::uint16_t, std::uint32_t> ref_codes(const RefLengths& lengths) {
  std::vector<std::pair<std::uint8_t, std::uint16_t>> order;
  for (const auto& [symbol, length] : lengths) {
    order.emplace_back(length, symbol);
  }
  std::sort(order.begin(), order.end());
  std::map<std::uint16_t, std::uint32_t> codes;
  std::uint64_t code = 0;
  std::uint8_t previous = order.front().first;
  for (const auto& [length, symbol] : order) {
    code <<= (length - previous);
    previous = length;
    codes[symbol] = static_cast<std::uint32_t>(code++);
  }
  return codes;
}

std::vector<std::uint16_t> as_symbols(const std::string& plain) {
  std::vector<std::uint16_t> symbols;
  for (char c : plain) symbols.push_back(static_cast<std::uint8_t>(c));
  return symbols;
}

std::string ref_raw(const std::string& plain) { return '\0' + plain; }

std::string ref_packed(const std::string& plain) {
  std::size_t width = 1;
  for (char c : plain) {
    while ((std::size_t{1} << width) <= static_cast<std::uint8_t>(c)) ++width;
  }
  RefBits bits;
  for (char c : plain) bits.put(static_cast<std::uint8_t>(c), width);
  return std::string{'\1', static_cast<char>(width)} + bits.bytes;
}

std::string ref_huffman(const std::string& plain) {
  const RefLengths lengths = ref_lengths(as_symbols(plain));
  const auto codes = ref_codes(lengths);
  std::string out{'\2', static_cast<char>(lengths.size() & 0xff),
                  static_cast<char>(lengths.size() >> 8)};
  for (const auto& [symbol, length] : lengths) {
    out.push_back(static_cast<char>(symbol));
    out.push_back(static_cast<char>(length));
  }
  RefBits bits;
  for (char c : plain) {
    const auto byte = static_cast<std::uint8_t>(c);
    bits.put(codes.at(byte), lengths.at(byte));
  }
  return out + bits.bytes;
}

std::string ref_encode(const std::string& plain, ChunkEntropy mode) {
  if (mode == ChunkEntropy::kHuffman) return ref_huffman(plain);
  const std::string raw = ref_raw(plain);
  const std::string packed = ref_packed(plain);
  const std::string huffman = ref_huffman(plain);
  if (raw.size() <= packed.size() && raw.size() <= huffman.size()) return raw;
  if (packed.size() <= huffman.size()) return packed;
  return huffman;
}

// ---------------------------------------------------------------------------
// Inputs

std::string gaussian_float_bytes(std::size_t floats, std::uint64_t seed) {
  runtime::Rng rng(seed);
  std::vector<float> values(floats);
  for (float& v : values) v = static_cast<float>(rng.normal());
  return std::string(reinterpret_cast<const char*>(values.data()),
                     floats * sizeof(float));
}

std::string uniform_bytes(std::size_t n, std::size_t alphabet,
                          std::uint64_t seed) {
  runtime::Rng rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.uniform_index(alphabet));
  return out;
}

/// Bytes drawn from a geometric distribution with success rate `p`,
/// clamped to 255: larger p, steeper skew.
std::string geometric_bytes(std::size_t n, double p, std::uint64_t seed) {
  runtime::Rng rng(seed);
  std::string out(n, '\0');
  for (char& c : out) {
    const double u = std::max(rng.uniform(), 1e-300);
    const double k = std::floor(std::log(u) / std::log(1.0 - p));
    c = static_cast<char>(static_cast<int>(std::min(k, 255.0)));
  }
  return out;
}

/// Byte s repeated Fibonacci(s) times for s < `symbols`: the skew that
/// gives the rarest symbols codes far longer than the 11-bit LUT window.
std::string fibonacci_bytes(std::size_t symbols) {
  std::string out;
  std::uint64_t a = 1, b = 1;
  for (std::size_t s = 0; s < symbols; ++s) {
    out.append(a, static_cast<char>(s));
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  return out;
}

void expect_reference_bytes(const std::string& plain,
                            const std::string& label) {
  for (ChunkEntropy mode : {ChunkEntropy::kHuffman, ChunkEntropy::kAuto}) {
    const std::string encoded = encode_chunk(plain, mode);
    ASSERT_EQ(encoded, ref_encode(plain, mode))
        << label << " mode=" << chunk_entropy_name(mode);
    std::string back(plain.size(), '\0');
    decode_chunk(encoded, plain.size(), back.data());
    ASSERT_EQ(back, plain) << label << " mode=" << chunk_entropy_name(mode);
  }
}

TEST(ChunkEntropy, HuffmanAndAutoBytesMatchReference) {
  expect_reference_bytes(gaussian_float_bytes(16384, 1), "gaussian f32 64KiB");
  expect_reference_bytes(uniform_bytes(65536, 256, 2), "uniform bytes");
  expect_reference_bytes(std::string(1000, '\x7f'), "1-symbol alphabet");
  expect_reference_bytes(uniform_bytes(1000, 2, 3), "2-symbol alphabet");
  expect_reference_bytes(uniform_bytes(5000, 255, 4), "255-symbol alphabet");
  for (double p : {0.05, 0.2, 0.5, 0.8, 0.95}) {
    expect_reference_bytes(geometric_bytes(20000, p, 5),
                           "geometric p=" + std::to_string(p));
  }
  expect_reference_bytes(fibonacci_bytes(20), "fibonacci (codes > 11 bits)");
  // Six 1-bit codes of the commonest byte, then the two 30-bit codes:
  // 6 + 30 + 30 bits no longer fit one 64-bit store.
  expect_reference_bytes(std::string(6, '\x1e') + fibonacci_bytes(31),
                         "fibonacci (codes > 28 bits)");
}

TEST(ChunkEntropy, EveryShortLengthMatchesReference) {
  for (std::size_t n = 1; n <= 300; ++n) {
    expect_reference_bytes(geometric_bytes(n, 0.3, 100 + n),
                           "length " + std::to_string(n));
  }
}

TEST(ChunkEntropy, DenseHistogramGivesSymbolVectorLengths) {
  // The Fibonacci histogram from Huffman.PathologicalHistogramStaysWithin
  // MaxCodeLength: 34 symbols need a 33-bit code, so both constructors
  // must take the weight-halving rebalance, and agree with the reference.
  std::vector<std::uint16_t> symbols;
  std::vector<std::uint64_t> counts;
  std::uint64_t a = 1, b = 1;
  for (std::uint16_t s = 0; s < 34; ++s) {
    symbols.insert(symbols.end(), a, s);
    counts.push_back(a);
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  const HuffmanCoder from_symbols(symbols);
  const HuffmanCoder from_counts{std::span<const std::uint64_t>(counts)};
  EXPECT_EQ(from_counts.lengths(), from_symbols.lengths());
  EXPECT_EQ(from_symbols.lengths(), ref_lengths(symbols));
  const std::vector<std::uint8_t> lengths =
      HuffmanCoder::code_lengths_for(counts);
  EXPECT_TRUE(std::equal(lengths.begin(), lengths.end(),
                         from_counts.code_lengths().begin(),
                         from_counts.code_lengths().end()));
  EXPECT_LE(*std::max_element(lengths.begin(), lengths.end()),
            HuffmanCoder::kMaxCodeLength);
}

// ---------------------------------------------------------------------------
// Typed rejection of the Huffman chunk body:
// [2][u16 table_count][(u8 symbol, u8 length) * table_count][bit payload]

io::CorruptKind chunk_kind(const std::string& encoded, std::size_t plain_len) {
  std::string out(plain_len, '\0');
  try {
    decode_chunk(encoded, plain_len, out.data());
  } catch (const io::CorruptStream& error) {
    return error.kind();
  }
  ADD_FAILURE() << "chunk decoded cleanly";
  return io::CorruptKind::kBadMagic;
}

std::string huffman_chunk(std::size_t table_count,
                          const std::vector<std::pair<int, int>>& table,
                          const std::string& payload) {
  std::string out{'\2', static_cast<char>(table_count & 0xff),
                  static_cast<char>(table_count >> 8)};
  for (const auto& [symbol, length] : table) {
    out.push_back(static_cast<char>(symbol));
    out.push_back(static_cast<char>(length));
  }
  return out + payload;
}

TEST(ChunkEntropy, MalformedHuffmanTablesAreRejectedTyped) {
  using io::CorruptKind;
  const std::string payload(4, '\0');
  EXPECT_EQ(chunk_kind(huffman_chunk(0, {}, payload), 8),
            CorruptKind::kBadCodeTable);
  EXPECT_EQ(chunk_kind(huffman_chunk(257, {{0, 1}, {1, 1}}, payload), 8),
            CorruptKind::kBadCodeTable);
  // Three entries announced, one present.
  EXPECT_EQ(chunk_kind(huffman_chunk(3, {{0, 1}}, ""), 1),
            CorruptKind::kTruncated);
  EXPECT_EQ(chunk_kind(huffman_chunk(2, {{5, 1}, {5, 1}}, payload), 8),
            CorruptKind::kBadCodeTable);
  EXPECT_EQ(chunk_kind(huffman_chunk(2, {{5, 0}, {6, 1}}, payload), 8),
            CorruptKind::kBadCodeTable);
  EXPECT_EQ(chunk_kind(huffman_chunk(2, {{5, 33}, {6, 1}}, payload), 8),
            CorruptKind::kBadCodeTable);
  // Kraft over-subscription: three 1-bit codes.
  EXPECT_EQ(chunk_kind(huffman_chunk(3, {{1, 1}, {2, 1}, {3, 1}}, payload), 8),
            CorruptKind::kBadCodeTable);
}

TEST(ChunkEntropy, MalformedHuffmanPayloadsAreRejectedTyped) {
  using io::CorruptKind;
  const std::vector<std::pair<int, int>> one_bit = {{0, 1}, {1, 1}};
  // 9 one-bit symbols cannot come out of an 8-bit payload.
  EXPECT_EQ(chunk_kind(huffman_chunk(2, one_bit, std::string(1, '\x55')), 9),
            CorruptKind::kTruncated);
  // 8 symbols leave a whole unconsumed byte.
  EXPECT_EQ(chunk_kind(huffman_chunk(2, one_bit, std::string(2, '\x55')), 8),
            CorruptKind::kPayloadMismatch);
  // Incomplete table: symbol 5 is the 2-bit code 00, so ones match no
  // code. 32 bits of them walk past the longest code...
  const std::vector<std::pair<int, int>> incomplete = {{5, 2}};
  EXPECT_EQ(chunk_kind(huffman_chunk(1, incomplete, std::string(8, '\xff')), 1),
            CorruptKind::kBadSymbol);
  // ...after LUT-decoded symbols too...
  EXPECT_EQ(chunk_kind(huffman_chunk(1, incomplete,
                                     std::string(2, '\0') +
                                         std::string(8, '\xff')),
                       20),
            CorruptKind::kBadSymbol);
  // ...while fewer than 32 of them run off the end of the stream.
  EXPECT_EQ(chunk_kind(huffman_chunk(1, incomplete, std::string(2, '\xff')), 1),
            CorruptKind::kTruncated);
}

TEST(ChunkEntropy, ValidHandBuiltHuffmanChunkDecodes) {
  // The rejection cases above differ from this chunk in one field each.
  const std::string encoded =
      huffman_chunk(2, {{'a', 1}, {'b', 1}}, std::string(1, '\x5a'));
  std::string out(8, '\0');
  decode_chunk(encoded, 8, out.data());
  EXPECT_EQ(out, "ababbaba");
}

}  // namespace
}  // namespace aic::baseline
