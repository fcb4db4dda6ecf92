#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "io/fault_inject.hpp"
#include "tensor/tensor.hpp"

namespace aic::cli {

/// One hardened decode path under test: a valid seed stream, the decode
/// callback (returns canonical bytes for bitwise comparison), and the
/// mutation matrix to run over it.
struct RobustnessTarget {
  std::string name;
  /// Which fuzz corpus family the seed belongs to ("archive", "huffman",
  /// "rle", "bitstream").
  std::string corpus_family;
  std::string bytes;
  io::DecodeFn decode;
  io::FaultMatrixOptions options;
};

/// Frame decoders shared between the fault-injection matrix and the
/// libFuzzer entry points. Input is fully untrusted; each either decodes
/// or raises aic::io::CorruptStream.
///
/// decode_archive_bytes: deserialize_archive + codec rebuild + full
/// decompress, returning the restored tensor's serialized bytes.
std::string decode_archive_bytes(const std::string& bytes);
/// Body layout: u32 table_count | (u16 symbol, u8 length)*count
/// | u32 symbol_count | bit payload. Rebuilds the (untrusted) canonical
/// table and decodes symbol_count symbols.
std::string decode_huffman_body(const std::string& bytes);
/// Body layout: u32 symbol_count | (u16 zero_run, i32 value)*count
/// | u32 length. Runs rle_decode.
std::string decode_rle_body(const std::string& bytes);
/// Body layout: u64 bit_count | bit payload. Reads bit_count bits.
std::string decode_bitstream_body(const std::string& bytes);

/// Wraps a body in the sealed integrity frame (u32 crc32c | body) the
/// matrix targets decode, mirroring the archive v3 contract for the raw
/// codec streams that have no container of their own.
std::string seal_frame(const std::string& body);

/// The 1x1x16x16 input every archive target compresses, generated from
/// `seed` (a smooth field plus Gaussian noise).
tensor::Tensor corpus_seed_tensor(std::uint64_t seed);

/// Reads `<corpus_dir>/<family>/<name>` from a checkout of the fuzz
/// corpus (`tests/corpus` in the source tree). Throws std::runtime_error
/// when the file is missing.
std::string read_corpus_seed(const std::string& corpus_dir,
                             const std::string& family,
                             const std::string& name);

/// The full built-in decode-hardening suite: dctchop/partial/triangle
/// archives (v4 written fresh; read-only v3 strict and v2
/// legacy-tolerant seeds loaded from the checked-in corpus) plus the
/// Huffman/RLE/bitstream codecs behind sealed frames, each with
/// header-bit sweeps, truncation at every byte boundary, seeded random
/// flips, and deep-validation field sweeps (corrupted fields with
/// fixed-up CRCs). The legacy seeds are read from `corpus_dir`.
std::vector<RobustnessTarget> robustness_targets(const std::string& corpus_dir);

/// Runs the matrix over every target.
std::vector<std::pair<std::string, io::FaultReport>> run_robustness_suite(
    const std::string& corpus_dir);

/// Writes each target's valid seed stream (and for the non-archive
/// families, the unsealed body) under `dir`/<family>/ as fuzz corpus
/// seeds, reading the legacy seeds from `corpus_dir`. Returns the files
/// written.
std::vector<std::string> write_fuzz_corpus(const std::string& dir,
                                           const std::string& corpus_dir);

}  // namespace aic::cli
