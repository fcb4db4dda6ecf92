#include "cli/robustness_suite.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>

#include "baseline/bitstream.hpp"
#include "baseline/huffman.hpp"
#include "baseline/rle.hpp"
#include "cli/archive.hpp"
#include "data/synth.hpp"
#include "io/byte_reader.hpp"
#include "io/checksum.hpp"
#include "io/error.hpp"
#include "io/tensor_io.hpp"
#include "runtime/rng.hpp"

namespace aic::cli {

using io::CorruptKind;
using io::raise_corrupt;
using tensor::Shape;
using tensor::Tensor;

namespace {

template <typename T>
void append(std::string& out, T value) {
  char raw[sizeof(T)];
  std::memcpy(raw, &value, sizeof(T));
  out.append(raw, sizeof(T));
}

/// Largest block length / symbol count a harness frame will honour —
/// rejects adversarial counts before they turn into allocations.
constexpr std::size_t kMaxFrameCount = std::size_t{1} << 20;

// ---------------------------------------------------------------------------
// Seed construction

std::string archive_bytes_v4(const std::string& spec, std::uint64_t seed,
                             std::size_t chunk_bytes,
                             baseline::ChunkEntropy entropy) {
  const ArchiveWriteOptions options{.chunk_bytes = chunk_bytes,
                                    .entropy = entropy};
  return serialize_archive(compress_to_archive(corpus_seed_tensor(seed), spec),
                           options);
}

std::string huffman_body() {
  // Skewed-but-valid histogram over a small alphabet.
  std::vector<std::uint16_t> symbols;
  for (std::uint16_t s = 0; s < 8; ++s) {
    for (std::uint16_t rep = 0; rep < static_cast<std::uint16_t>(1 << s);
         ++rep) {
      symbols.push_back(s);
    }
  }
  const baseline::HuffmanCoder coder(symbols);
  baseline::BitWriter writer;
  coder.encode(symbols, writer);
  const std::vector<std::uint8_t> bits = writer.finish();

  std::string body;
  append<std::uint32_t>(body,
                        static_cast<std::uint32_t>(coder.lengths().size()));
  for (const auto& [symbol, length] : coder.lengths()) {
    append<std::uint16_t>(body, symbol);
    append<std::uint8_t>(body, length);
  }
  append<std::uint32_t>(body, static_cast<std::uint32_t>(symbols.size()));
  body.append(reinterpret_cast<const char*>(bits.data()), bits.size());
  return body;
}

std::string rle_body() {
  // Long zero runs around sparse values, plus an end-of-block tail.
  std::vector<std::int32_t> values(64, 0);
  values[0] = 13;
  values[9] = -7;
  values[40] = 1;
  const std::vector<baseline::RleSymbol> symbols =
      baseline::rle_encode(values);

  std::string body;
  append<std::uint32_t>(body, static_cast<std::uint32_t>(symbols.size()));
  for (const baseline::RleSymbol& s : symbols) {
    append<std::uint16_t>(body, s.zero_run);
    append<std::int32_t>(body, s.value);
  }
  append<std::uint32_t>(body, static_cast<std::uint32_t>(values.size()));
  return body;
}

std::string bitstream_body() {
  baseline::BitWriter writer;
  for (std::uint32_t i = 0; i < 100; ++i) {
    writer.write_bits(i * 2654435761u, 1 + i % 32);
  }
  std::string body;
  append<std::uint64_t>(body, writer.bit_count());
  const std::vector<std::uint8_t> bits = writer.finish();
  body.append(reinterpret_cast<const char*>(bits.data()), bits.size());
  return body;
}

// ---------------------------------------------------------------------------
// Field-sweep mutants

/// Stream layout offsets (see cli/archive.hpp). The preamble is
/// magic|version|header_len|header_crc for both CRC'd versions; v3
/// additionally carries a payload CRC word before the header, v4 does
/// not (its chunk CRCs live in the header's table).
constexpr std::size_t kVersionOffset = 4;
constexpr std::size_t kHeaderCrcOffset = 12;
constexpr std::size_t kHeaderOffset = 20;    // v3
constexpr std::size_t kHeaderOffsetV4 = 16;  // v4

std::size_t header_offset_for(std::uint32_t version) {
  return version >= 4 ? kHeaderOffsetV4 : kHeaderOffset;
}

/// Patches `width` bytes of the header region at `field_offset` and
/// recomputes the header CRC, so the mutant exercises the deep field
/// validation instead of the checksum.
std::string patch_header_field(const std::string& bytes,
                               std::uint32_t version,
                               std::size_t field_offset, const void* value,
                               std::size_t width) {
  const std::size_t header_offset = header_offset_for(version);
  std::string out = bytes;
  std::memcpy(out.data() + header_offset + field_offset, value, width);
  std::uint32_t header_len;
  std::memcpy(&header_len, out.data() + 8, sizeof(header_len));
  const std::uint32_t crc =
      io::crc32c(out.data() + header_offset, header_len);
  std::memcpy(out.data() + kHeaderCrcOffset, &crc, sizeof(crc));
  return out;
}

/// Deep-validation sweeps over every header field shared by v3/v4 (CRC
/// fixed up each time) plus a version sweep (the version word sits
/// outside the CRCs).
std::vector<std::pair<std::string, std::string>> archive_field_sweeps(
    const std::string& bytes, std::uint32_t version) {
  std::vector<std::pair<std::string, std::string>> out;
  const auto add = [&](const std::string& label, std::size_t offset,
                       auto value) {
    out.emplace_back("field sweep " + label,
                     patch_header_field(bytes, version, offset, &value,
                                        sizeof(value)));
  };
  for (std::uint8_t kind : {std::uint8_t{3}, std::uint8_t{255}}) {
    add("kind=" + std::to_string(kind), 0, kind);
  }
  for (std::uint8_t transform : {std::uint8_t{3}, std::uint8_t{200}}) {
    add("transform=" + std::to_string(transform), 1, transform);
  }
  for (std::uint16_t cf : {std::uint16_t{0}, std::uint16_t{9},
                           std::uint16_t{65535}}) {
    add("cf=" + std::to_string(cf), 2, cf);
  }
  for (std::uint16_t block : {std::uint16_t{0}, std::uint16_t{3},
                              std::uint16_t{65535}}) {
    add("block=" + std::to_string(block), 4, block);
  }
  for (std::uint16_t s : {std::uint16_t{0}, std::uint16_t{2},
                          std::uint16_t{7}, std::uint16_t{65535}}) {
    add("subdivision=" + std::to_string(s), 6, s);
  }
  for (std::uint32_t rank : {std::uint32_t{0}, std::uint32_t{3},
                             std::uint32_t{5}, std::uint32_t{0xFFFFFFFF}}) {
    add("rank=" + std::to_string(rank), 8, rank);
  }
  for (std::uint64_t dim :
       {std::uint64_t{0}, std::uint64_t{15}, std::uint64_t{1} << 31,
        std::uint64_t{1} << 33, std::uint64_t{1} << 62,
        ~std::uint64_t{0}}) {
    // Sweep each of the four dims independently.
    for (std::size_t axis = 0; axis < 4; ++axis) {
      add("dim[" + std::to_string(axis) + "]=" + std::to_string(dim),
          12 + 8 * axis, dim);
    }
  }
  // The version word is outside both CRCs; sweep it raw. Unknown
  // versions are rejected by range; reinterpreting a v3 stream as v4 (or
  // vice versa) shifts the header window, which the header CRC catches.
  for (std::uint32_t v : {std::uint32_t{0}, std::uint32_t{1},
                          std::uint32_t{5}, std::uint32_t{255},
                          std::uint32_t{0xFFFFFFFF},
                          version == 4 ? std::uint32_t{3}
                                       : std::uint32_t{4}}) {
    std::string mutant = bytes;
    std::memcpy(mutant.data() + kVersionOffset, &v, sizeof(v));
    out.emplace_back("version sweep " + std::to_string(v), mutant);
  }
  return out;
}

/// v4-only deep mutants: chunk-geometry and chunk-table corruption with
/// the header CRC recomputed, so the structural checks (not the
/// checksum) must reject, plus per-chunk CRC and encoded-region flips
/// that the chunk CRCs must catch.
std::vector<std::pair<std::string, std::string>> v4_table_mutants(
    const std::string& bytes) {
  // Header layout after the 44 shared bytes: u64 payload_len @44,
  // u64 chunk_bytes @52, u32 chunk_count @60, then 12-byte table rows.
  constexpr std::size_t kPayloadLenOff = 44;
  constexpr std::size_t kChunkBytesOff = 52;
  constexpr std::size_t kChunkCountOff = 60;
  constexpr std::size_t kTableOff = 64;

  std::uint64_t payload_len, chunk_bytes;
  std::uint32_t chunk_count;
  std::memcpy(&payload_len, bytes.data() + kHeaderOffsetV4 + kPayloadLenOff,
              8);
  std::memcpy(&chunk_bytes, bytes.data() + kHeaderOffsetV4 + kChunkBytesOff,
              8);
  std::memcpy(&chunk_count, bytes.data() + kHeaderOffsetV4 + kChunkCountOff,
              4);

  std::vector<std::pair<std::string, std::string>> out;
  const auto add = [&](const std::string& label, std::size_t offset,
                       auto value) {
    out.emplace_back("v4 table " + label,
                     patch_header_field(bytes, 4, offset, &value,
                                        sizeof(value)));
  };
  add("payload_len+1", kPayloadLenOff, payload_len + 1);
  add("payload_len=0", kPayloadLenOff, std::uint64_t{0});
  add("chunk_bytes=0", kChunkBytesOff, std::uint64_t{0});
  add("chunk_bytes=1<<40", kChunkBytesOff, std::uint64_t{1} << 40);
  add("chunk_bytes*2", kChunkBytesOff, chunk_bytes * 2);
  add("chunk_count+1", kChunkCountOff, chunk_count + 1);
  add("chunk_count-1", kChunkCountOff, chunk_count - 1);
  add("chunk_count=0", kChunkCountOff, std::uint32_t{0});
  // Per-chunk table rows: length lies (structural / truncation checks)
  // and a CRC lie (the re-encoded chunk no longer matches its stored
  // checksum).
  add("chunk0 len=0", kTableOff, std::uint64_t{0});
  add("chunk0 len+=1", kTableOff, [&] {
        std::uint64_t len;
        std::memcpy(&len, bytes.data() + kHeaderOffsetV4 + kTableOff, 8);
        return len + 1;
      }());
  add("chunk0 len=1<<30", kTableOff, std::uint64_t{1} << 30);
  add("chunk0 crc^=1", kTableOff + 8, [&] {
        std::uint32_t crc;
        std::memcpy(&crc, bytes.data() + kHeaderOffsetV4 + kTableOff + 8, 4);
        return crc ^ 1u;
      }());
  // A flip inside the encoded chunk region (outside the header CRC's
  // span): only the per-chunk CRC stands between it and a wrong tensor.
  {
    std::string mutant = bytes;
    mutant[mutant.size() - 1] ^= 0x10;
    out.emplace_back("v4 encoded-region flip (last byte)",
                     std::move(mutant));
    std::string first = bytes;
    std::uint32_t header_len;
    std::memcpy(&header_len, first.data() + 8, sizeof(header_len));
    first[kHeaderOffsetV4 + header_len] ^= 0x01;  // first encoded byte
    out.emplace_back("v4 encoded-region flip (first byte)",
                     std::move(first));
  }
  return out;
}

/// Huffman deep mutants: structurally parseable bodies whose table or
/// counts violate the coder's contracts (sealed, so the frame CRC
/// passes and the HuffmanCoder validation is what rejects them).
std::vector<std::pair<std::string, std::string>> huffman_deep_mutants() {
  std::vector<std::pair<std::string, std::string>> out;
  const auto table_body = [](std::vector<std::pair<std::uint16_t,
                                                   std::uint8_t>> entries,
                             std::uint32_t count, std::string payload) {
    std::string body;
    append<std::uint32_t>(body, static_cast<std::uint32_t>(entries.size()));
    for (const auto& [symbol, length] : entries) {
      append<std::uint16_t>(body, symbol);
      append<std::uint8_t>(body, length);
    }
    append<std::uint32_t>(body, count);
    body += payload;
    return body;
  };
  out.emplace_back("zero-length code",
                   seal_frame(table_body({{1, 0}, {2, 2}}, 1, "\xAA")));
  out.emplace_back("over-long code (40 bits)",
                   seal_frame(table_body({{1, 40}, {2, 1}}, 1, "\xAA")));
  out.emplace_back(
      "Kraft violation",
      seal_frame(table_body({{1, 1}, {2, 1}, {3, 2}}, 1, "\xAA")));
  out.emplace_back("empty table", seal_frame(table_body({}, 1, "\xAA")));
  out.emplace_back(
      "count beyond bits",
      seal_frame(table_body({{1, 1}, {2, 1}}, 1000000, "\xAA")));
  return out;
}

/// RLE deep mutants: runs that overflow the block and hostile lengths.
std::vector<std::pair<std::string, std::string>> rle_deep_mutants() {
  std::vector<std::pair<std::string, std::string>> out;
  const auto body = [](std::vector<baseline::RleSymbol> symbols,
                       std::uint32_t length) {
    std::string b;
    append<std::uint32_t>(b, static_cast<std::uint32_t>(symbols.size()));
    for (const baseline::RleSymbol& s : symbols) {
      append<std::uint16_t>(b, s.zero_run);
      append<std::int32_t>(b, s.value);
    }
    append<std::uint32_t>(b, length);
    return b;
  };
  out.emplace_back("run overflows block",
                   seal_frame(body({{60000, 5}, {60000, 5}}, 64)));
  out.emplace_back("value past block end",
                   seal_frame(body({{63, 5}, {0, 9}}, 64)));
  out.emplace_back("hostile length",
                   seal_frame(body({{0, 1}}, 0xFFFFFFFF)));
  return out;
}

}  // namespace

Tensor corpus_seed_tensor(std::uint64_t seed) {
  runtime::Rng rng(seed);
  Tensor tensor(Shape::bchw(1, 1, 16, 16));
  Tensor plane = data::smooth_field(16, 16, rng, 4, 0.5);
  data::add_gaussian_noise(plane, rng, 0.02);
  tensor.set_plane(0, 0, plane);
  return tensor;
}

std::string read_corpus_seed(const std::string& corpus_dir,
                             const std::string& family,
                             const std::string& name) {
  const std::filesystem::path path =
      std::filesystem::path(corpus_dir) / family / name;
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    throw std::runtime_error("robustness suite: cannot open corpus seed " +
                             path.string());
  }
  return std::string(std::istreambuf_iterator<char>(file),
                     std::istreambuf_iterator<char>());
}

// ---------------------------------------------------------------------------
// Frame decoders

std::string decode_archive_bytes(const std::string& bytes) {
  const Archive archive = deserialize_archive(bytes);
  const Tensor restored = make_archive_codec(archive)->decompress(
      archive.packed, archive.original_shape);
  return io::serialize_tensor(restored);
}

std::string decode_huffman_body(const std::string& bytes) {
  io::ByteReader reader(bytes, "huffman frame");
  const auto table_count = reader.read<std::uint32_t>("table count");
  if (table_count == 0 || table_count > kMaxFrameCount) {
    raise_corrupt(CorruptKind::kBadCodeTable,
                  "huffman frame: implausible table count " +
                      std::to_string(table_count));
  }
  std::map<std::uint16_t, std::uint8_t> lengths;
  for (std::uint32_t i = 0; i < table_count; ++i) {
    const auto symbol = reader.read<std::uint16_t>("table symbol");
    const auto length = reader.read<std::uint8_t>("table length");
    if (!lengths.emplace(symbol, length).second) {
      raise_corrupt(CorruptKind::kBadCodeTable,
                    "huffman frame: duplicate symbol " +
                        std::to_string(symbol));
    }
  }
  const baseline::HuffmanCoder coder(lengths);
  const auto symbol_count = reader.read<std::uint32_t>("symbol count");
  const std::string_view payload = reader.rest();
  std::vector<std::uint8_t> payload_bytes(payload.begin(), payload.end());
  baseline::BitReader bits(payload_bytes);
  const std::vector<std::uint16_t> symbols = coder.decode(bits, symbol_count);
  return std::string(reinterpret_cast<const char*>(symbols.data()),
                     symbols.size() * sizeof(std::uint16_t));
}

std::string decode_rle_body(const std::string& bytes) {
  io::ByteReader reader(bytes, "rle frame");
  const auto symbol_count = reader.read<std::uint32_t>("symbol count");
  if (symbol_count > kMaxFrameCount) {
    raise_corrupt(CorruptKind::kBadSymbol,
                  "rle frame: implausible symbol count " +
                      std::to_string(symbol_count));
  }
  std::vector<baseline::RleSymbol> symbols;
  symbols.reserve(symbol_count);
  for (std::uint32_t i = 0; i < symbol_count; ++i) {
    baseline::RleSymbol s;
    s.zero_run = reader.read<std::uint16_t>("zero run");
    s.value = reader.read<std::int32_t>("value");
    symbols.push_back(s);
  }
  const auto length = reader.read<std::uint32_t>("block length");
  if (length > kMaxFrameCount) {
    raise_corrupt(CorruptKind::kBadSymbol,
                  "rle frame: implausible block length " +
                      std::to_string(length));
  }
  const std::vector<std::int32_t> values =
      baseline::rle_decode(symbols, length);
  return std::string(reinterpret_cast<const char*>(values.data()),
                     values.size() * sizeof(std::int32_t));
}

std::string decode_bitstream_body(const std::string& bytes) {
  io::ByteReader reader(bytes, "bitstream frame");
  const auto bit_count = reader.read<std::uint64_t>("bit count");
  const std::string_view payload = reader.rest();
  std::vector<std::uint8_t> payload_bytes(payload.begin(), payload.end());
  baseline::BitReader bits(payload_bytes);
  if (bit_count > bits.bits_remaining()) {
    raise_corrupt(CorruptKind::kTruncated,
                  "bitstream frame: " + std::to_string(bit_count) +
                      " bits promised, " +
                      std::to_string(bits.bits_remaining()) + " available");
  }
  std::string out;
  std::uint64_t remaining = bit_count;
  while (remaining > 0) {
    const std::size_t take =
        static_cast<std::size_t>(std::min<std::uint64_t>(remaining, 32));
    append<std::uint32_t>(out, bits.read_bits(take));
    remaining -= take;
  }
  return out;
}

std::string seal_frame(const std::string& body) {
  std::string out;
  append<std::uint32_t>(out, io::crc32c(body.data(), body.size()));
  out += body;
  return out;
}

namespace {

/// Decodes a sealed frame: CRC first (typed rejection of any flip), then
/// the body decoder.
io::DecodeFn sealed(std::string (*decode_body)(const std::string&)) {
  return [decode_body](const std::string& bytes) {
    io::ByteReader reader(bytes, "sealed frame");
    const auto stored = reader.read<std::uint32_t>("frame CRC");
    const std::string_view body = reader.rest();
    const std::uint32_t computed = io::crc32c(body.data(), body.size());
    if (computed != stored) {
      raise_corrupt(CorruptKind::kChecksumMismatch,
                    "sealed frame: CRC mismatch (stored " +
                        std::to_string(stored) + ", computed " +
                        std::to_string(computed) + ")");
    }
    return decode_body(std::string(body));
  };
}

}  // namespace

std::vector<RobustnessTarget> robustness_targets(
    const std::string& corpus_dir) {
  std::vector<RobustnessTarget> targets;

  // v2/v3 targets: these versions are read-only, so their seeds come
  // from the checked-in corpus.
  const auto archive_target = [&](const std::string& name,
                                  std::uint32_t version, std::uint64_t seed) {
    RobustnessTarget t;
    t.name = name;
    t.corpus_family = "archive";
    std::string file = "seed_" + name + ".bin";
    std::replace(file.begin(), file.end(), ':', '_');
    t.bytes = read_corpus_seed(corpus_dir, "archive", file);
    t.decode = decode_archive_bytes;
    // Sweep the whole fixed-size preamble + header fields bit by bit.
    t.options.header_bytes =
        version >= 3 ? header_offset_for(version) + 44 : 8 + 44;
    t.options.random_flips = 96;
    t.options.seed = seed;
    // v2 has no checksum: a payload flip silently shifts float values,
    // which the legacy format cannot detect.
    t.options.allow_divergence = version < 3;
    if (version >= 3) t.options.extra = archive_field_sweeps(t.bytes, version);
    targets.push_back(std::move(t));
  };
  archive_target("archive:dctchop:v3", 3, 11);
  archive_target("archive:partial:v3", 3, 12);
  archive_target("archive:triangle:v3", 3, 13);
  archive_target("archive:dctchop:v2", 2, 14);

  // v4 chunked targets: small chunk budgets force multi-chunk tables;
  // one target per entropy family so every chunk decoder faces the
  // matrix. Bit sweeps additionally cover the whole chunk table (it
  // lives inside the CRC'd header).
  const auto archive_v4_target = [&](const std::string& name,
                                     const std::string& spec,
                                     std::uint64_t seed,
                                     std::size_t chunk_bytes,
                                     baseline::ChunkEntropy entropy) {
    RobustnessTarget t;
    t.name = name;
    t.corpus_family = "archive";
    t.bytes = archive_bytes_v4(spec, seed, chunk_bytes, entropy);
    t.decode = decode_archive_bytes;
    std::uint32_t header_len;
    std::memcpy(&header_len, t.bytes.data() + 8, sizeof(header_len));
    t.options.header_bytes = kHeaderOffsetV4 + header_len;
    t.options.random_flips = 96;
    t.options.seed = seed;
    t.options.extra = archive_field_sweeps(t.bytes, 4);
    const auto table = v4_table_mutants(t.bytes);
    t.options.extra.insert(t.options.extra.end(), table.begin(), table.end());
    targets.push_back(std::move(t));
  };
  archive_v4_target("archive:dctchop:v4:raw", "dctchop:cf=4,block=8", 15, 96,
                    baseline::ChunkEntropy::kRaw);
  archive_v4_target("archive:partial:v4:auto", "partial:cf=4,block=8,s=2", 16,
                    128, baseline::ChunkEntropy::kAuto);
  archive_v4_target("archive:triangle:v4:huffman", "triangle:cf=4,block=8",
                    17, 80, baseline::ChunkEntropy::kHuffman);
  archive_v4_target("archive:dctchop:v4:packed", "dctchop:cf=4,block=8", 18,
                    64, baseline::ChunkEntropy::kPacked);

  const auto frame_target =
      [&](const std::string& name, const std::string& family,
          std::string body, std::string (*decode_body)(const std::string&),
          std::vector<std::pair<std::string, std::string>> deep) {
        RobustnessTarget t;
        t.name = name;
        t.corpus_family = family;
        t.bytes = seal_frame(body);
        t.decode = sealed(decode_body);
        t.options.header_bytes = t.bytes.size();  // sweep every bit
        t.options.random_flips = 32;
        t.options.seed = 42;
        t.options.extra = std::move(deep);
        targets.push_back(std::move(t));
      };
  frame_target("huffman:sealed", "huffman", huffman_body(),
               decode_huffman_body, huffman_deep_mutants());
  frame_target("rle:sealed", "rle", rle_body(), decode_rle_body,
               rle_deep_mutants());
  frame_target("bitstream:sealed", "bitstream", bitstream_body(),
               decode_bitstream_body, {});

  return targets;
}

std::vector<std::pair<std::string, io::FaultReport>> run_robustness_suite(
    const std::string& corpus_dir) {
  std::vector<std::pair<std::string, io::FaultReport>> out;
  for (const RobustnessTarget& target : robustness_targets(corpus_dir)) {
    out.emplace_back(target.name,
                     io::run_fault_matrix(target.bytes, target.decode,
                                          target.options));
  }
  return out;
}

std::vector<std::string> write_fuzz_corpus(const std::string& dir,
                                           const std::string& corpus_dir) {
  std::vector<std::string> written;
  const auto write = [&](const std::string& family, const std::string& name,
                         const std::string& bytes) {
    const std::filesystem::path path =
        std::filesystem::path(dir) / family / name;
    std::filesystem::create_directories(path.parent_path());
    std::ofstream file(path, std::ios::binary);
    file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    written.push_back(path.string());
  };
  for (const RobustnessTarget& target : robustness_targets(corpus_dir)) {
    // Only the archive fuzz target consumes full container streams; the
    // codec fuzz targets consume unsealed bodies (a CRC prefix would
    // block the fuzzer at the checksum).
    if (target.corpus_family != "archive") continue;
    std::string name = target.name;
    std::replace(name.begin(), name.end(), ':', '_');
    write(target.corpus_family, "seed_" + name + ".bin", target.bytes);
  }
  write("huffman", "seed_body.bin", huffman_body());
  write("rle", "seed_body.bin", rle_body());
  write("bitstream", "seed_body.bin", bitstream_body());
  return written;
}

}  // namespace aic::cli
