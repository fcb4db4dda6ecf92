#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace aic::baseline {

/// Append-only bit buffer (MSB-first within each byte).
///
/// BitWriter/BitReader are the primitive the paper's §3.1 operator audit
/// is about: every variable-length encoding below (RLE symbols, Huffman
/// codes) bottoms out in the shift/mask operations these classes perform —
/// operations PyTorch does not expose on most AI accelerators, which is
/// why DCT+Chop deliberately avoids this entire layer.
///
/// Internally the writer runs on a 64-bit accumulator and emits whole
/// bytes, but the produced byte stream is bit-for-bit identical to the
/// historical bit-at-a-time implementation.
class BitWriter {
 public:
  /// Appends the `count` low bits of `value`, most significant first.
  void write_bits(std::uint32_t value, std::size_t count);

  /// Pads the final partial byte with zeros and returns the buffer.
  std::vector<std::uint8_t> finish();

  /// Bits written so far.
  std::size_t bit_count() const { return bit_count_; }

  /// Pre-sizes the byte buffer for `bytes` total output bytes so the
  /// encode hot loop never reallocates (see realloc_count()).
  void reserve(std::size_t bytes) { bytes_.reserve(bytes); }

  /// Number of byte-buffer growths since construction. An encoder that
  /// reserve()s from its exact size accounting must keep this at zero —
  /// the pipeline tests assert it.
  std::size_t realloc_count() const { return reallocs_; }

 private:
  void append_byte(std::uint8_t byte) {
    if (bytes_.size() == bytes_.capacity()) ++reallocs_;
    bytes_.push_back(byte);
  }

  std::vector<std::uint8_t> bytes_;
  std::uint64_t acc_ = 0;      // low `acc_bits_` bits are pending output
  std::size_t acc_bits_ = 0;   // always < 8 between calls
  std::size_t bit_count_ = 0;
  std::size_t reallocs_ = 0;
};

/// MSB-first reader over a byte buffer produced by BitWriter.
class BitReader {
 public:
  explicit BitReader(const std::vector<std::uint8_t>& bytes)
      : bytes_(bytes) {}

  /// Reads `count` bits (<= 32). Throws aic::io::CorruptStream
  /// (kTruncated) past the end of the stream.
  std::uint32_t read_bits(std::size_t count);

  /// Reads a single bit.
  bool read_bit();

  /// Returns the next `count` bits (<= 32) without consuming them.
  /// Bits past the end of the stream read as zero — the caller must
  /// bound how many it trusts via bits_remaining() (the Huffman LUT
  /// decode does exactly that).
  std::uint32_t peek_bits(std::size_t count) const;

  /// Consumes `count` bits. Throws aic::io::CorruptStream (kTruncated)
  /// when fewer remain.
  void skip_bits(std::size_t count);

  /// The underlying buffer and the read position in bits, for decoders
  /// that scan the stream themselves and skip_bits() what they consumed.
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::size_t position() const { return position_; }

  std::size_t bits_remaining() const {
    const std::size_t whole = bytes_.size() - position_ / 8;
    return whole == 0 ? 0 : whole * 8 - position_ % 8;
  }

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t position_ = 0;
};

/// Fixed-width bit packing: packs `count` byte values of `width` bits
/// (1..8) each into ceil(count*width/8) bytes, MSB-first — the exact
/// stream a BitWriter fed write_bits(values[i], width) would produce.
/// Dispatches to an AVX2 kernel when runtime::kernel_backend() allows.
/// `out` must hold packed_bytes(count, width) bytes.
std::size_t pack_fixed_width(const std::uint8_t* values, std::size_t count,
                             std::size_t width, std::uint8_t* out);

/// Inverse of pack_fixed_width: expands `count` values of `width` bits
/// from `in` (`in_bytes` long) into `out`. Throws aic::io::CorruptStream
/// (kTruncated) when `in` holds fewer than count*width bits.
void unpack_fixed_width(const std::uint8_t* in, std::size_t in_bytes,
                        std::size_t width, std::uint8_t* out,
                        std::size_t count);

/// ceil(count * width / 8), the packed size both functions agree on.
inline std::size_t packed_bytes(std::size_t count, std::size_t width) {
  return (count * width + 7) / 8;
}

}  // namespace aic::baseline
