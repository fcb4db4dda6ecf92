#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "tensor/tensor.hpp"

namespace aic::io {

/// Binary tensor serialization (little-endian, versioned header):
///
///   magic "AICT" | u32 version | u32 rank | u64 dims[rank] | f32 data[]
///
/// Used to persist compressed datasets and precomputed LHS/RHS operators
/// between runs; round-trips bit-exactly.
///
/// The file functions move each byte once: save_tensor writes the header
/// and then the tensor's own storage (no staging string), and load_tensor
/// validates the header against the file size (same typed CorruptStream
/// rejections as deserialize_tensor, raised before anything is
/// allocated) and reads the payload straight into the new tensor.
void save_tensor(const tensor::Tensor& tensor, const std::string& path);

/// Loads a tensor written by save_tensor. Throws std::runtime_error when
/// the path cannot be opened or is a directory, CorruptStream on
/// malformed contents. Pipes and devices are read whole, then parsed.
tensor::Tensor load_tensor(const std::string& path);

/// Streams the save_tensor bytes (header, then the tensor's storage) to
/// `out`; the caller checks the stream state.
void write_tensor(const tensor::Tensor& tensor, std::ostream& out);

/// In-memory variants. The string_view overload parses non-owning bytes
/// (e.g. a mapped file or a pooled staging buffer) without a copy into
/// an owned string.
std::string serialize_tensor(const tensor::Tensor& tensor);
tensor::Tensor deserialize_tensor(std::string_view bytes);

/// Parsed + validated serialize_tensor header (everything before the f32
/// data).
struct TensorHeaderInfo {
  tensor::Shape shape;
  std::size_t header_bytes = 0;   // 12 + 8 * rank
  std::size_t payload_bytes = 0;  // numel * sizeof(float)
};

/// Largest possible serialize_tensor header (rank == Shape::kMaxRank) —
/// the prefix a streaming reader must stage before this header can be
/// parsed.
std::size_t max_tensor_header_bytes();

/// Validates the tensor header at the front of `prefix` with exactly the
/// typed CorruptStream rejections deserialize_tensor raises (bad magic /
/// version / rank / dims / overflow), then checks the dims' payload
/// accounts for precisely `total_bytes - header_bytes` — so callers that
/// stream the f32 data separately (the chunked archive's
/// decode-into-tensor path) share one validation order with the
/// all-in-memory reader. `prefix` needs to hold only
/// min(total_bytes, max_tensor_header_bytes()) bytes.
TensorHeaderInfo parse_tensor_header(std::string_view prefix,
                                     std::size_t total_bytes);

/// The header bytes serialize_tensor would emit for `shape` (everything
/// before the f32 data). The chunked-archive pipeline writes this once
/// and streams plane data in behind it instead of materializing the
/// whole serialized string up front.
std::string serialize_tensor_header(const tensor::Shape& shape);

/// Exact size of serialize_tensor's output for `shape`, overflow-checked
/// (raises CorruptStream(kOverflow)). Lets archive readers validate an
/// untrusted payload length before allocating anything.
std::size_t serialized_tensor_bytes(const tensor::Shape& shape);

}  // namespace aic::io
