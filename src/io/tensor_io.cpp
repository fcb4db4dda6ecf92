#include "io/tensor_io.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "io/byte_reader.hpp"
#include "io/error.hpp"
#include "io/mapped_file.hpp"

namespace aic::io {

using tensor::Shape;
using tensor::Tensor;

namespace {

constexpr char kMagic[4] = {'A', 'I', 'C', 'T'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void append(std::string& out, T value) {
  char raw[sizeof(T)];
  std::memcpy(raw, &value, sizeof(T));
  out.append(raw, sizeof(T));
}

}  // namespace

std::string serialize_tensor_header(const Shape& shape) {
  std::string out;
  out.reserve(12 + 8 * shape.rank());
  out.append(kMagic, sizeof(kMagic));
  append<std::uint32_t>(out, kVersion);
  append<std::uint32_t>(out, static_cast<std::uint32_t>(shape.rank()));
  for (std::size_t axis = 0; axis < shape.rank(); ++axis) {
    append<std::uint64_t>(out, shape[axis]);
  }
  return out;
}

std::size_t serialized_tensor_bytes(const Shape& shape) {
  std::size_t numel = 1;
  for (std::size_t axis = 0; axis < shape.rank(); ++axis) {
    numel = checked_mul(numel, shape[axis], "tensor_io dims");
  }
  return 12 + 8 * shape.rank() +
         checked_mul(numel, sizeof(float), "tensor_io payload");
}

std::string serialize_tensor(const Tensor& tensor) {
  std::string out;
  out.reserve(serialized_tensor_bytes(tensor.shape()));
  out += serialize_tensor_header(tensor.shape());
  out.append(reinterpret_cast<const char*>(tensor.raw()),
             tensor.size_bytes());
  return out;
}

std::size_t max_tensor_header_bytes() { return 12 + 8 * Shape::kMaxRank; }

TensorHeaderInfo parse_tensor_header(std::string_view prefix,
                                     std::size_t total_bytes) {
  ByteReader reader(prefix, "tensor_io");
  reader.require(sizeof(kMagic), "magic");
  if (std::memcmp(prefix.data(), kMagic, sizeof(kMagic)) != 0) {
    raise_corrupt(CorruptKind::kBadMagic, "tensor_io: bad magic");
  }
  (void)reader.read_bytes(sizeof(kMagic), "magic");
  const auto version = reader.read<std::uint32_t>("version");
  if (version != kVersion) {
    raise_corrupt(CorruptKind::kBadVersion,
                  "tensor_io: found version " + std::to_string(version) +
                      ", supported version " + std::to_string(kVersion));
  }
  const auto rank = reader.read<std::uint32_t>("rank");
  if (rank > Shape::kMaxRank) {
    raise_corrupt(CorruptKind::kBadHeaderField,
                  "tensor_io: rank " + std::to_string(rank) +
                      " exceeds max rank " + std::to_string(Shape::kMaxRank));
  }
  // The dims product is overflow-checked and validated against the
  // remaining payload before the Tensor is allocated, so adversarial
  // dims can neither wrap the element count nor trigger a huge alloc.
  std::size_t dims[Shape::kMaxRank] = {};
  std::size_t numel = 1;
  for (std::uint32_t axis = 0; axis < rank; ++axis) {
    const auto dim = reader.read<std::uint64_t>("dims");
    if (dim > std::numeric_limits<std::uint32_t>::max()) {
      raise_corrupt(CorruptKind::kBadHeaderField,
                    "tensor_io: dim " + std::to_string(dim) +
                        " is implausibly large");
    }
    dims[axis] = static_cast<std::size_t>(dim);
    numel = checked_mul(numel, dims[axis], "tensor_io dims");
  }
  TensorHeaderInfo info;
  info.header_bytes = 12 + 8 * rank;
  info.payload_bytes = checked_mul(numel, sizeof(float), "tensor_io payload");
  if (info.payload_bytes != total_bytes - info.header_bytes) {
    raise_corrupt(CorruptKind::kPayloadMismatch,
                  "tensor_io: dims promise " +
                      std::to_string(info.payload_bytes) +
                      " payload bytes, stream has " +
                      std::to_string(total_bytes - info.header_bytes));
  }
  switch (rank) {
    case 0: info.shape = Shape::scalar(); break;
    case 1: info.shape = Shape::vector(dims[0]); break;
    case 2: info.shape = Shape::matrix(dims[0], dims[1]); break;
    case 3: info.shape = Shape({dims[0], dims[1], dims[2]}); break;
    default:
      info.shape = Shape::bchw(dims[0], dims[1], dims[2], dims[3]);
      break;
  }
  return info;
}

Tensor deserialize_tensor(std::string_view bytes) {
  const TensorHeaderInfo info = parse_tensor_header(bytes, bytes.size());
  Tensor tensor(info.shape);
  std::memcpy(tensor.raw(), bytes.data() + info.header_bytes,
              info.payload_bytes);
  return tensor;
}

void write_tensor(const Tensor& tensor, std::ostream& out) {
  const std::string header = serialize_tensor_header(tensor.shape());
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(reinterpret_cast<const char*>(tensor.raw()),
            static_cast<std::streamsize>(tensor.size_bytes()));
}

void save_tensor(const Tensor& tensor, const std::string& path) {
  std::ofstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("tensor_io: cannot open " + path);
  write_tensor(tensor, file);
  file.close();
  if (!file) throw std::runtime_error("tensor_io: write failed: " + path);
}

Tensor load_tensor(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ignored;
  const fs::file_status status = fs::status(path, ignored);
  if (fs::is_directory(status)) {
    throw std::runtime_error("tensor_io: " + path + " is a directory");
  }
  if (fs::exists(status) && !fs::is_regular_file(status)) {
    // Pipes and devices have no size up front; MappedFile reads them whole.
    return deserialize_tensor(MappedFile(path).view());
  }
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("tensor_io: cannot open " + path);
  file.seekg(0, std::ios::end);
  const std::streamoff end = file.tellg();
  if (end < 0) throw std::runtime_error("tensor_io: cannot size " + path);
  const auto total = static_cast<std::size_t>(end);
  file.seekg(0);
  const auto read_exact = [&](char* dst, std::size_t len) {
    file.read(dst, static_cast<std::streamsize>(len));
    if (static_cast<std::size_t>(file.gcount()) != len) {
      raise_corrupt(CorruptKind::kTruncated,
                    "tensor_io: " + path + " shrank while being read");
    }
  };
  // The header is validated against the real file size before the
  // Tensor exists, so dims promising more bytes than the file holds are
  // rejected without allocating; the payload is then read straight into
  // the tensor's storage.
  std::string prefix(std::min(total, max_tensor_header_bytes()), '\0');
  read_exact(prefix.data(), prefix.size());
  const TensorHeaderInfo info = parse_tensor_header(prefix, total);
  Tensor tensor(info.shape);
  file.seekg(static_cast<std::streamoff>(info.header_bytes));
  read_exact(reinterpret_cast<char*>(tensor.raw()), info.payload_bytes);
  return tensor;
}

}  // namespace aic::io
