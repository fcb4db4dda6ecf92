#include "baseline/huffman.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "io/error.hpp"
#include "runtime/rng.hpp"

namespace aic::baseline {
namespace {

TEST(Huffman, RoundTripsSimpleStream) {
  const std::vector<std::uint16_t> symbols = {1, 2, 2, 3, 3, 3, 3};
  const HuffmanCoder coder(symbols);
  BitWriter writer;
  coder.encode(symbols, writer);
  const auto bytes = writer.finish();
  BitReader reader(bytes);
  EXPECT_EQ(coder.decode(reader, symbols.size()), symbols);
}

TEST(Huffman, SingleSymbolAlphabet) {
  const std::vector<std::uint16_t> symbols(10, 42);
  const HuffmanCoder coder(symbols);
  BitWriter writer;
  coder.encode(symbols, writer);
  const auto bytes = writer.finish();
  BitReader reader(bytes);
  EXPECT_EQ(coder.decode(reader, symbols.size()), symbols);
}

TEST(Huffman, FrequentSymbolsGetShorterCodes) {
  std::vector<std::uint16_t> symbols;
  for (int i = 0; i < 100; ++i) symbols.push_back(0);
  for (int i = 0; i < 5; ++i) symbols.push_back(1);
  for (int i = 0; i < 5; ++i) symbols.push_back(2);
  const HuffmanCoder coder(symbols);
  EXPECT_LT(coder.lengths().at(0), coder.lengths().at(1));
}

TEST(Huffman, EncodedSizeBeatsFixedWidthOnSkewedData) {
  runtime::Rng rng(1);
  std::vector<std::uint16_t> symbols;
  for (int i = 0; i < 10'000; ++i) {
    // Zipf-ish skew over 16 symbols.
    const double u = rng.uniform();
    symbols.push_back(u < 0.6 ? 0 : u < 0.85 ? 1 : rng.uniform_index(16));
  }
  const HuffmanCoder coder(symbols);
  const std::size_t fixed_bits = symbols.size() * 4;  // 16 symbols = 4 bits
  EXPECT_LT(coder.encoded_bits(symbols), fixed_bits);
}

TEST(Huffman, RoundTripsRandomStreams) {
  runtime::Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint16_t> symbols;
    const std::size_t alphabet = 1 + rng.uniform_index(64);
    for (int i = 0; i < 500; ++i) {
      symbols.push_back(static_cast<std::uint16_t>(rng.uniform_index(alphabet)));
    }
    const HuffmanCoder coder(symbols);
    BitWriter writer;
    coder.encode(symbols, writer);
    const auto bytes = writer.finish();
    BitReader reader(bytes);
    ASSERT_EQ(coder.decode(reader, symbols.size()), symbols) << trial;
  }
}

TEST(Huffman, RebuildFromLengthsMatchesOriginal) {
  const std::vector<std::uint16_t> symbols = {5, 5, 5, 9, 9, 17, 17, 17, 17, 2};
  const HuffmanCoder original(symbols);
  const HuffmanCoder rebuilt(original.lengths());
  BitWriter writer;
  original.encode(symbols, writer);
  const auto bytes = writer.finish();
  BitReader reader(bytes);
  EXPECT_EQ(rebuilt.decode(reader, symbols.size()), symbols);
}

TEST(Huffman, CanonicalCodesMatchTheDecoderCodes) {
  // (length, symbol) order: symbol 1 (length 1) gets 0, symbol 0
  // (length 2) 0b10, symbols 2 and 3 (length 3) 0b110 and 0b111.
  EXPECT_EQ(
      HuffmanCoder::canonical_codes(std::vector<std::uint8_t>{2, 1, 3, 3}),
      (std::vector<std::uint32_t>{2, 0, 6, 7}));
  // The encode-side codes equal those of a full decoder over the same
  // lengths, for byte histograms of every skew and absent symbols, and for
  // codes of kMaxCodeLength bits.
  runtime::Rng rng(4);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::uint64_t> counts(1 + rng.uniform_index(256), 0);
    for (std::size_t s = 0; s < counts.size(); ++s) {
      if (rng.uniform_index(4) != 0) {
        counts[s] = 1 + rng.uniform_index(1 + trial * trial * 50);
      }
    }
    counts.back() = 1;
    const std::vector<std::uint8_t> lengths =
        HuffmanCoder::code_lengths_for(counts);
    const HuffmanCoder coder = HuffmanCoder::from_code_lengths(lengths);
    const std::vector<std::uint32_t> expected(coder.codes().begin(),
                                              coder.codes().end());
    EXPECT_EQ(HuffmanCoder::canonical_codes(lengths), expected) << trial;
  }
  // The fully skewed complete code: lengths 1, 2, ..., 32, 32.
  std::vector<std::uint8_t> deep;
  for (std::uint8_t length = 1; length <= HuffmanCoder::kMaxCodeLength;
       ++length) {
    deep.push_back(length);
  }
  deep.push_back(HuffmanCoder::kMaxCodeLength);
  const HuffmanCoder coder = HuffmanCoder::from_code_lengths(deep);
  EXPECT_EQ(HuffmanCoder::canonical_codes(deep),
            std::vector<std::uint32_t>(coder.codes().begin(),
                                       coder.codes().end()));
}

TEST(Huffman, KraftInequalityHolds) {
  runtime::Rng rng(3);
  std::vector<std::uint16_t> symbols;
  for (int i = 0; i < 1000; ++i) {
    symbols.push_back(static_cast<std::uint16_t>(rng.uniform_index(30)));
  }
  const HuffmanCoder coder(symbols);
  double kraft = 0.0;
  for (const auto& [symbol, length] : coder.lengths()) {
    kraft += std::pow(2.0, -static_cast<double>(length));
  }
  EXPECT_LE(kraft, 1.0 + 1e-12);
}

TEST(Huffman, EmptyStreamThrows) {
  EXPECT_THROW(HuffmanCoder(std::vector<std::uint16_t>{}),
               std::invalid_argument);
}

TEST(Huffman, UnknownSymbolThrows) {
  const HuffmanCoder coder(std::vector<std::uint16_t>{1, 2, 3});
  BitWriter writer;
  EXPECT_THROW(coder.encode({99}, writer), std::invalid_argument);
}

TEST(Huffman, PathologicalHistogramStaysWithinMaxCodeLength) {
  // Fibonacci-weighted histogram: the worst case for Huffman, producing a
  // fully skewed tree whose depth equals the alphabet size. 34 symbols
  // need a 33-bit code for the lightest one — past kMaxCodeLength — so
  // the constructor must rebalance the weights instead of silently
  // overflowing the u32 canonical codes (the old behaviour).
  std::vector<std::uint16_t> symbols;
  std::uint64_t fib_a = 1, fib_b = 1;
  for (std::uint16_t s = 0; s < 34; ++s) {
    for (std::uint64_t i = 0; i < fib_a; ++i) symbols.push_back(s);
    const std::uint64_t next = fib_a + fib_b;
    fib_a = fib_b;
    fib_b = next;
  }
  const HuffmanCoder coder(symbols);
  ASSERT_EQ(coder.lengths().size(), 34u);
  for (const auto& [symbol, length] : coder.lengths()) {
    EXPECT_GE(length, 1) << symbol;
    EXPECT_LE(length, HuffmanCoder::kMaxCodeLength) << symbol;
  }
  // The rebalanced code still round-trips every symbol.
  std::vector<std::uint16_t> sample;
  for (std::uint16_t s = 0; s < 34; ++s) sample.push_back(s);
  BitWriter writer;
  coder.encode(sample, writer);
  const auto bytes = writer.finish();
  BitReader reader(bytes);
  EXPECT_EQ(coder.decode(reader, sample.size()), sample);
}

TEST(Huffman, RejectsCorruptLengthTables) {
  using Table = std::map<std::uint16_t, std::uint8_t>;
  // Zero-length code.
  EXPECT_THROW(HuffmanCoder(Table{{1, 0}, {2, 2}}), io::CorruptStream);
  // Length past kMaxCodeLength.
  EXPECT_THROW(HuffmanCoder(Table{{1, 40}, {2, 1}}), io::CorruptStream);
  // Over-subscribed table (violates the Kraft inequality).
  EXPECT_THROW(HuffmanCoder(Table{{1, 1}, {2, 1}, {3, 2}}),
               io::CorruptStream);
  // Empty tables stay a caller error, not a data error.
  EXPECT_THROW(HuffmanCoder(Table{}), std::invalid_argument);
}

TEST(Huffman, CodesBeyondLutWindowDecodeViaBitWalk) {
  // A canonical table mixing codes shorter and longer than the kLutBits
  // decode window: the LUT resolves the short ones, the >11-bit codes
  // take the exact bit-walk fallback, and the two paths must agree on
  // one stream. Lengths {1, 2, ..., 13, 14, 14} satisfy Kraft exactly.
  std::map<std::uint16_t, std::uint8_t> lengths;
  for (std::uint8_t len = 1; len <= 14; ++len) {
    lengths[len] = len;
  }
  lengths[15] = 14;
  const HuffmanCoder coder(lengths);
  std::vector<std::uint16_t> sample;
  runtime::Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    sample.push_back(static_cast<std::uint16_t>(1 + rng.uniform_index(15)));
  }
  BitWriter writer;
  writer.reserve((coder.encoded_bits(sample) + 7) / 8);
  coder.encode(sample, writer);
  EXPECT_EQ(writer.realloc_count(), 0u);
  const auto bytes = writer.finish();
  BitReader reader(bytes);
  EXPECT_EQ(coder.decode(reader, sample.size()), sample);
}

TEST(Huffman, DecodeRejectsCountBeyondStream) {
  const HuffmanCoder coder(std::vector<std::uint16_t>{1, 2, 2, 3, 3, 3, 3});
  const std::vector<std::uint8_t> one_byte = {0xFF};
  BitReader reader(one_byte);
  EXPECT_THROW(coder.decode(reader, 1000), io::CorruptStream);
}

TEST(Huffman, DecodeRejectsBitsMatchingNoCode) {
  // Incomplete code (Kraft < 1): symbol 5 is the 2-bit code 00, so a
  // stream of ones never matches and must be rejected as a bad symbol
  // instead of walking forever.
  const HuffmanCoder coder(std::map<std::uint16_t, std::uint8_t>{{5, 2}});
  const std::vector<std::uint8_t> ones(8, 0xFF);
  BitReader reader(ones);
  EXPECT_THROW(coder.decode(reader, 1), io::CorruptStream);
}

}  // namespace
}  // namespace aic::baseline
