#include "io/mapped_file.hpp"

#include <fstream>
#include <iterator>
#include <stdexcept>

#include "runtime/env.hpp"

#ifndef _WIN32
#include <cerrno>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace aic::io {

#ifdef _WIN32

// Windows stub: no mmap attempt, always the heap read.
MappedFile::MappedFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    throw std::runtime_error("mapped_file: cannot open " + path);
  }
  fallback_.assign(std::istreambuf_iterator<char>(file),
                   std::istreambuf_iterator<char>());
  if (file.bad()) {
    throw std::runtime_error("mapped_file: read failed: " + path);
  }
}

void MappedFile::unmap() noexcept { fallback_.clear(); }

#else

namespace {

/// Reads an open descriptor to EOF and closes it. Pipes and devices must
/// be drained through the descriptor they were opened on: reopening the
/// path would wait for a new writer and drop what the first one sent.
std::string read_and_close(int fd, const std::string& path) {
  std::string bytes;
  char buffer[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw std::runtime_error("mapped_file: read failed: " + path);
    }
    bytes.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return bytes;
}

}  // namespace

MappedFile::MappedFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw std::runtime_error("mapped_file: cannot open " + path);
  }
  struct stat info {};
  if (runtime::env_size_t("AIC_NO_MMAP", 0) != 0 || ::fstat(fd, &info) != 0 ||
      !S_ISREG(info.st_mode) || info.st_size == 0) {
    // Pipes, devices, and empty files take the read path (mmap of length
    // 0 is EINVAL; mmap of a pipe is ENODEV).
    fallback_ = read_and_close(fd, path);
    return;
  }
  const std::size_t size = static_cast<std::size_t>(info.st_size);
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (addr == MAP_FAILED) {
    fallback_ = read_and_close(fd, path);
    return;
  }
  ::close(fd);  // the mapping keeps its own reference
  addr_ = addr;
  size_ = size;
  mapped_ = true;
}

void MappedFile::unmap() noexcept {
  if (mapped_ && addr_ != nullptr) {
    ::munmap(addr_, size_);
  }
  addr_ = nullptr;
  size_ = 0;
  mapped_ = false;
  fallback_.clear();
}

#endif  // _WIN32

MappedFile::~MappedFile() { unmap(); }

}  // namespace aic::io
