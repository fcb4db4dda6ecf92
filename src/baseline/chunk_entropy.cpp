#include "baseline/chunk_entropy.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "baseline/bitstream.hpp"
#include "baseline/huffman.hpp"
#include "io/error.hpp"
#include "obs/pipeline.hpp"

namespace aic::baseline {

using io::CorruptKind;
using io::raise_corrupt;

namespace {

using ByteHistogram = std::array<std::uint64_t, 256>;

/// Stores `value` as 8 big-endian bytes at `dst`.
void store_be64(char* dst, std::uint64_t value) {
  if constexpr (std::endian::native == std::endian::little) {
    value = __builtin_bswap64(value);
  }
  std::memcpy(dst, &value, sizeof value);
}

/// Byte counts of `plain`, tallied into four interleaved sub-histograms
/// so runs of one byte value do not serialize on a single counter.
ByteHistogram byte_histogram(std::string_view plain) {
  std::array<ByteHistogram, 4> lanes{};
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(plain.data());
  std::size_t i = 0;
  for (; i + 4 <= plain.size(); i += 4) {
    ++lanes[0][bytes[i]];
    ++lanes[1][bytes[i + 1]];
    ++lanes[2][bytes[i + 2]];
    ++lanes[3][bytes[i + 3]];
  }
  for (; i < plain.size(); ++i) ++lanes[0][bytes[i]];
  for (std::size_t b = 0; b < 256; ++b) {
    lanes[0][b] += lanes[1][b] + lanes[2][b] + lanes[3][b];
  }
  return lanes[0];
}

/// Smallest width in [1, 8] covering `max_value`.
std::size_t packed_width_for(std::uint8_t max_value) {
  std::size_t width = 1;
  while ((std::size_t{1} << width) <= max_value) ++width;
  return width;
}

std::size_t packed_width_for(std::string_view plain) {
  std::uint8_t max_value = 0;
  for (char c : plain) {
    max_value = std::max(max_value, static_cast<std::uint8_t>(c));
  }
  return packed_width_for(max_value);
}

std::string encode_raw(std::string_view plain) {
  std::string out;
  out.reserve(1 + plain.size());
  out.push_back(static_cast<char>(ChunkEntropy::kRaw));
  out.append(plain.data(), plain.size());
  return out;
}

std::string encode_packed(std::string_view plain, std::size_t width) {
  std::string out;
  out.resize(2 + packed_bytes(plain.size(), width));
  out[0] = static_cast<char>(ChunkEntropy::kPacked);
  out[1] = static_cast<char>(width);
  const std::size_t written = pack_fixed_width(
      reinterpret_cast<const std::uint8_t*>(plain.data()), plain.size(),
      width, reinterpret_cast<std::uint8_t*>(out.data() + 2));
  out.resize(2 + written);
  return out;
}

/// The Huffman option's cost, from the histogram's code lengths alone:
/// the table entries and the exact payload bits (sum of freq * len).
struct HuffmanCost {
  std::size_t table_count = 0;
  std::size_t payload_bits = 0;

  std::size_t encoded_size() const {
    return 1 + 2 + 2 * table_count + (payload_bits + 7) / 8;
  }
};

HuffmanCost huffman_cost(const ByteHistogram& freq,
                         const std::vector<std::uint8_t>& lengths) {
  HuffmanCost cost;
  for (std::size_t symbol = 0; symbol < lengths.size(); ++symbol) {
    if (lengths[symbol] == 0) continue;
    ++cost.table_count;
    cost.payload_bits += freq[symbol] * lengths[symbol];
  }
  return cost;
}

/// Encodes `plain` with the canonical code for `length`: the table,
/// then the codes through a 64-bit bit buffer straight into the output,
/// sized once from `cost` plus 7 bytes of store slack. Each store writes
/// the buffer's top 8 bytes and advances by the whole bytes they hold,
/// so the loop has no data-dependent branch. A store that finds the
/// string too short grows it and counts the growth in
/// pipeline.encode_reallocs (exact sizing keeps that at zero).
std::string encode_huffman(std::string_view plain,
                           const std::vector<std::uint8_t>& length,
                           const HuffmanCost& cost) {
  const std::vector<std::uint32_t> code =
      HuffmanCoder::canonical_codes(length);

  constexpr std::size_t kSlack = 7;
  std::string out(cost.encoded_size() + kSlack, '\0');
  std::size_t pos = 0;
  out[pos++] = static_cast<char>(ChunkEntropy::kHuffman);
  out[pos++] = static_cast<char>(cost.table_count & 0xff);
  out[pos++] = static_cast<char>((cost.table_count >> 8) & 0xff);
  for (std::size_t symbol = 0; symbol < length.size(); ++symbol) {
    if (length[symbol] == 0) continue;
    out[pos++] = static_cast<char>(symbol);
    out[pos++] = static_cast<char>(length[symbol]);
  }

  std::size_t reallocs = 0;
  std::uint64_t acc = 0;    // low `pending` bits are unstored output
  std::size_t pending = 0;  // < 8 between stores
  const auto put = [&](std::uint8_t byte) {
    acc = (acc << length[byte]) | code[byte];
    pending += length[byte];
  };
  const auto store = [&] {
    if (out.size() - pos < 8) {
      out.resize(pos + 8);
      ++reallocs;
    }
    store_be64(out.data() + pos, acc << (64 - pending));
    pos += pending / 8;
    pending %= 8;
  };
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(plain.data());
  std::size_t i = 0;
  // Two codes per store when both fit beside the unfinished byte:
  // 7 + 2 * 28 <= 63 bits.
  if (*std::max_element(length.begin(), length.end()) <= 28) {
    for (; i + 2 <= plain.size(); i += 2) {
      put(bytes[i]);
      put(bytes[i + 1]);
      store();
    }
  }
  for (; i < plain.size(); ++i) {
    put(bytes[i]);
    store();
  }
  if (pending > 0) ++pos;  // the zero-padded final byte is stored
  obs::PipelineMetrics::global().record_encode_reallocs(reallocs);
  out.resize(pos);
  return out;
}

void decode_raw(std::string_view body, std::size_t plain_len, char* out) {
  if (body.size() != plain_len) {
    raise_corrupt(CorruptKind::kPayloadMismatch,
                  "chunk: raw body holds " + std::to_string(body.size()) +
                      " bytes, expected " + std::to_string(plain_len));
  }
  std::memcpy(out, body.data(), body.size());
}

void decode_packed(std::string_view body, std::size_t plain_len, char* out) {
  if (body.empty()) {
    raise_corrupt(CorruptKind::kTruncated, "chunk: packed body missing width");
  }
  const std::size_t width = static_cast<std::uint8_t>(body[0]);
  if (width == 0 || width > 8) {
    raise_corrupt(CorruptKind::kBadHeaderField,
                  "chunk: packed width " + std::to_string(width) +
                      " outside [1, 8]");
  }
  const std::string_view packed = body.substr(1);
  if (packed.size() != packed_bytes(plain_len, width)) {
    raise_corrupt(CorruptKind::kPayloadMismatch,
                  "chunk: packed body holds " + std::to_string(packed.size()) +
                      " bytes, expected " +
                      std::to_string(packed_bytes(plain_len, width)));
  }
  unpack_fixed_width(reinterpret_cast<const std::uint8_t*>(packed.data()),
                     packed.size(), width,
                     reinterpret_cast<std::uint8_t*>(out), plain_len);
}

void decode_huffman(std::string_view body, std::size_t plain_len, char* out) {
  if (body.size() < 2) {
    raise_corrupt(CorruptKind::kTruncated, "chunk: huffman body missing table");
  }
  const std::size_t table_count = static_cast<std::uint8_t>(body[0]) |
                                  (static_cast<std::uint8_t>(body[1]) << 8);
  if (table_count == 0 || table_count > 256) {
    raise_corrupt(CorruptKind::kBadCodeTable,
                  "chunk: huffman table count " + std::to_string(table_count) +
                      " outside [1, 256]");
  }
  if (body.size() < 2 + 2 * table_count) {
    raise_corrupt(CorruptKind::kTruncated,
                  "chunk: huffman table truncated (" +
                      std::to_string(body.size()) + " bytes for " +
                      std::to_string(table_count) + " entries)");
  }
  std::vector<std::uint8_t> lengths(256, 0);
  for (std::size_t i = 0; i < table_count; ++i) {
    const std::uint8_t symbol = static_cast<std::uint8_t>(body[2 + 2 * i]);
    const std::uint8_t length = static_cast<std::uint8_t>(body[3 + 2 * i]);
    if (lengths[symbol] != 0) {
      raise_corrupt(CorruptKind::kBadCodeTable,
                    "chunk: duplicate huffman symbol " +
                        std::to_string(symbol));
    }
    if (length == 0) {
      raise_corrupt(CorruptKind::kBadCodeTable,
                    "chunk: huffman code length 0 for symbol " +
                        std::to_string(symbol));
    }
    lengths[symbol] = length;
  }
  // Validates lengths <= 32 and the Kraft inequality.
  const HuffmanCoder coder =
      HuffmanCoder::from_code_lengths(std::move(lengths));

  const std::string_view payload = body.substr(2 + 2 * table_count);
  const std::size_t used = coder.decode_bytes(
      payload, plain_len, reinterpret_cast<std::uint8_t*>(out));
  const std::size_t unconsumed = payload.size() * 8 - used;
  if (unconsumed >= 8) {
    raise_corrupt(CorruptKind::kPayloadMismatch,
                  "chunk: " + std::to_string(unconsumed) +
                      " unconsumed bits after huffman payload");
  }
}

}  // namespace

ChunkEntropy parse_chunk_entropy(const std::string& name) {
  if (name == "raw") return ChunkEntropy::kRaw;
  if (name == "packed") return ChunkEntropy::kPacked;
  if (name == "huffman") return ChunkEntropy::kHuffman;
  if (name == "auto") return ChunkEntropy::kAuto;
  throw std::invalid_argument(
      "chunk entropy mode \"" + name +
      "\" unknown (expected raw, packed, huffman, or auto)");
}

const char* chunk_entropy_name(ChunkEntropy mode) {
  switch (mode) {
    case ChunkEntropy::kRaw: return "raw";
    case ChunkEntropy::kPacked: return "packed";
    case ChunkEntropy::kHuffman: return "huffman";
    case ChunkEntropy::kAuto: return "auto";
  }
  return "unknown";
}

std::string encode_chunk(std::string_view plain, ChunkEntropy mode) {
  if (plain.empty() || mode == ChunkEntropy::kRaw) {
    return encode_raw(plain);
  }
  if (mode == ChunkEntropy::kPacked) {
    return encode_packed(plain, packed_width_for(plain));
  }
  const ByteHistogram freq = byte_histogram(plain);
  const std::vector<std::uint8_t> lengths =
      HuffmanCoder::code_lengths_for(freq);
  const HuffmanCost huffman = huffman_cost(freq, lengths);
  if (mode == ChunkEntropy::kHuffman) {
    return encode_huffman(plain, lengths, huffman);
  }
  // Auto: cost all three from the histogram, keep the smallest. Ties
  // break toward the cheaper decoder (raw < packed < huffman) —
  // deterministically, so the archive stays bitwise-identical across
  // runs and thread counts. The code lengths run up to the largest byte.
  const std::size_t width =
      packed_width_for(static_cast<std::uint8_t>(lengths.size() - 1));
  const std::size_t raw_size = 1 + plain.size();
  const std::size_t packed_size = 2 + packed_bytes(plain.size(), width);
  const std::size_t huffman_size = huffman.encoded_size();

  const std::size_t best = std::min({raw_size, packed_size, huffman_size});
  if (best == raw_size) return encode_raw(plain);
  if (best == packed_size) return encode_packed(plain, width);
  return encode_huffman(plain, lengths, huffman);
}

void decode_chunk(std::string_view encoded, std::size_t plain_len,
                  char* out) {
  if (encoded.empty()) {
    raise_corrupt(CorruptKind::kTruncated, "chunk: empty encoded chunk");
  }
  if (!chunk_expansion_ok(encoded.size() - 1, plain_len)) {
    raise_corrupt(CorruptKind::kPayloadMismatch,
                  "chunk: " + std::to_string(encoded.size()) +
                      " encoded bytes cannot expand to " +
                      std::to_string(plain_len) + " plain bytes");
  }
  const auto mode = static_cast<std::uint8_t>(encoded[0]);
  const std::string_view body = encoded.substr(1);
  switch (static_cast<ChunkEntropy>(mode)) {
    case ChunkEntropy::kRaw:
      return decode_raw(body, plain_len, out);
    case ChunkEntropy::kPacked:
      return decode_packed(body, plain_len, out);
    case ChunkEntropy::kHuffman:
      return decode_huffman(body, plain_len, out);
    default:
      raise_corrupt(CorruptKind::kBadHeaderField,
                    "chunk: unknown entropy mode " + std::to_string(mode));
  }
}

}  // namespace aic::baseline
