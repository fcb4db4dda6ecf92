#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string_view>
#include <vector>

#include "baseline/bitstream.hpp"

namespace aic::baseline {

/// Canonical Huffman coder over 16-bit symbols.
///
/// Used by the JPEG-style entropy stage and the archive's per-chunk byte
/// coder. Codes are rebuilt per stream from symbol frequencies and shipped
/// as a (symbol, length) table, exactly the data-dependent, bit-twiddling
/// machinery that makes VLE schemes non-portable to the accelerators
/// (§3.1). Every table is flat: per-symbol code and length arrays for
/// encode, an 11-bit two-symbol LUT plus a canonical per-length table for
/// decode.
class HuffmanCoder {
 public:
  /// Longest admissible code: canonical codes are stored in uint32, so a
  /// longer code would silently overflow during enumeration. The
  /// histogram constructors rebalance skewed weights to stay within it;
  /// the table constructors reject longer lengths as corrupt.
  static constexpr std::uint8_t kMaxCodeLength = 32;

  /// Builds a code from the symbol histogram of `symbols`.
  /// Requires at least one symbol.
  explicit HuffmanCoder(const std::vector<std::uint16_t>& symbols);

  /// Builds a code from a dense histogram: `counts[s]` occurrences of
  /// symbol s (0 = absent). Requires a nonzero count. Gives the same code
  /// as the symbol-vector constructor over the same multiset.
  explicit HuffmanCoder(std::span<const std::uint64_t> counts);

  /// Rebuilds a coder from a canonical (symbol -> code length) table,
  /// e.g. one shipped in a compressed stream's header. The table is
  /// untrusted: lengths outside [1, kMaxCodeLength] or a table violating
  /// the Kraft inequality raise aic::io::CorruptStream.
  explicit HuffmanCoder(const std::map<std::uint16_t, std::uint8_t>& lengths);

  /// Rebuilds a coder from a dense length table (`lengths[s]`, 0 =
  /// absent). Untrusted like the map constructor: lengths past
  /// kMaxCodeLength or a Kraft violation raise aic::io::CorruptStream.
  static HuffmanCoder from_code_lengths(std::vector<std::uint8_t> lengths);

  /// The code lengths the histogram constructors would assign to the
  /// dense histogram `counts`, indexed by symbol (0 = absent), without
  /// building codes or decode tables — enough to cost the code
  /// (table + sum of counts[s] * lengths[s]) before committing to it.
  static std::vector<std::uint8_t> code_lengths_for(
      std::span<const std::uint64_t> counts);

  /// The canonical code of each symbol of the length table `lengths`
  /// (`lengths[s]`, 0 = absent), in (length, symbol) order, without
  /// building a decoder. The table is trusted, e.g. fresh from
  /// code_lengths_for(); an untrusted one goes through from_code_lengths().
  static std::vector<std::uint32_t> canonical_codes(
      std::span<const std::uint8_t> lengths);

  /// Encodes symbols into `writer`. Throws on symbols absent from the code.
  void encode(const std::vector<std::uint16_t>& symbols,
              BitWriter& writer) const;

  /// Decodes exactly `count` symbols from `reader`. Raises
  /// aic::io::CorruptStream when the stream is exhausted, `count`
  /// exceeds the remaining bits, or the bits match no code.
  std::vector<std::uint16_t> decode(BitReader& reader,
                                    std::size_t count) const;

  /// Decodes exactly `count` symbols of a byte-alphabet code (every
  /// symbol < 256) from the MSB-first bit stream `bits` straight into
  /// `out`. Returns the bits consumed; raises the same
  /// aic::io::CorruptStream kinds as decode().
  std::size_t decode_bytes(std::string_view bits, std::size_t count,
                           std::uint8_t* out) const;

  /// The canonical code-length table (serializable stream header),
  /// ordered by symbol.
  std::map<std::uint16_t, std::uint8_t> lengths() const;

  /// Dense per-symbol code lengths (0 = absent) and canonical codes,
  /// indexed by symbol up to the largest symbol in the code.
  std::span<const std::uint8_t> code_lengths() const { return length_; }
  std::span<const std::uint32_t> codes() const { return code_; }

  /// Total bits needed to encode `symbols` with this code (no header).
  std::size_t encoded_bits(const std::vector<std::uint16_t>& symbols) const;

  /// Window width of the table-driven decode LUT: one peek of this many
  /// bits resolves up to two whole symbols per lookup. Codes longer than
  /// the window fall back to the exact bit-walk.
  static constexpr std::size_t kLutBits = 11;

 private:
  HuffmanCoder() = default;
  void build_tables();
  void build_decode_lut();
  template <typename Symbol>
  std::size_t decode_window(const std::uint8_t* data, std::size_t size,
                            std::size_t bit_offset, std::size_t count,
                            Symbol* out) const;

  /// One decode-LUT entry: the next kLutBits bits of the stream resolve
  /// `count` symbols (0 = code longer than the window, bit-walk instead)
  /// consuming `bits` bits total. Padded to 8 bytes so the lookup on the
  /// decode's critical path indexes with a single scaled address.
  struct alignas(8) LutEntry {
    std::uint16_t symbols[2] = {0, 0};
    std::uint8_t count = 0;
    std::uint8_t bits = 0;
  };

  // Encode tables indexed by symbol (0 length = absent).
  std::vector<std::uint8_t> length_;
  std::vector<std::uint32_t> code_;
  // Canonical decode: the codes of length L are the contiguous range
  // [first_code_[L], first_code_[L] + length_count_[L]), naming the
  // symbols sorted_symbols_[first_index_[L] ...] in canonical order.
  std::array<std::uint64_t, kMaxCodeLength + 1> first_code_{};
  std::array<std::uint32_t, kMaxCodeLength + 1> length_count_{};
  std::array<std::uint32_t, kMaxCodeLength + 1> first_index_{};
  std::vector<std::uint16_t> sorted_symbols_;
  std::vector<LutEntry> decode_lut_;  // 1 << kLutBits entries
};

}  // namespace aic::baseline
