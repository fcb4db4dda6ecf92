// libFuzzer entry point over one v4 archive chunk: u32 plain_len (little
// endian) | encoded chunk. plain_len is capped by chunk_expansion_ok, the
// bound the archive reader enforces before it sizes a chunk's output.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "baseline/chunk_entropy.hpp"
#include "io/error.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 4) return 0;
  const std::size_t plain_len = data[0] | (data[1] << 8) | (data[2] << 16) |
                                (std::size_t{data[3]} << 24);
  const std::string_view encoded(reinterpret_cast<const char*>(data + 4),
                                 size - 4);
  if (!aic::baseline::chunk_expansion_ok(encoded.size(), plain_len)) return 0;
  std::string out(plain_len, '\0');
  try {
    aic::baseline::decode_chunk(encoded, plain_len, out.data());
  } catch (const aic::io::CorruptStream&) {
  }
  return 0;
}
