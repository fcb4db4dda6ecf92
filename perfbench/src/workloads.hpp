// The benchmark's three workloads, each a closed loop of one client
// issuing rounds of ops against the library's public API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "runtime/context.hpp"

namespace perfbench {

enum class OpKind { kCompress, kDecompress };

inline const char* op_name(OpKind kind) {
  return kind == OpKind::kCompress ? "compress" : "decompress";
}

struct Settings {
  std::uint64_t seed = 1;
  /// Scratch directory for the file workload (inside the checkout).
  std::filesystem::path work_dir;
};

/// Edge of the square GEMM probe (tensor.gemm_gflops).
inline constexpr std::size_t kGemmN = 512;

/// FLOPs of one compress of the workload's batch, computed from its shape.
struct Flops {
  /// Only the products the kept CF x CF band needs: every chop operator
  /// is block-diagonal (Fig. 4), so each output is an 8-term dot product.
  double useful = 0;
  /// The dense two-GEMM count of Eq. 5 (DctChopCodec::flops_compress_hw).
  double nominal = 0;
};

/// One workload. The constructor performs the whole set-up: it generates
/// the inputs from the seed, writes files or archives and builds the
/// reference outputs on a separate 1-thread session, so every op is
/// checked against bytes produced by a different pool size.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Op kinds of one round, in execution order (kinds are interleaved so
  /// a burst of host contention hits all of them alike).
  virtual const std::vector<OpKind>& round() const = 0;
  /// Op `slot` of round `round` through the public entry point a user
  /// calls. Throws on failure.
  virtual void run(std::size_t slot, std::uint64_t round) = 0;
  /// The same op as the sequence of layer calls it makes, each timed as a
  /// span by `tracer`; produces the same outputs as run().
  virtual void replica(std::size_t slot, std::uint64_t round,
                       Tracer& tracer) = 0;
  /// Bitwise check of the outputs of the last run()/replica() of `slot`
  /// against the set-up reference; releases outputs the next op must not
  /// find. Not timed.
  virtual bool verify(std::size_t slot, std::uint64_t round) = 0;
  /// Layer probes of the traced run (calls that are not part of an op),
  /// each a root span with one child; false when a probe's output differs
  /// from its reference.
  virtual bool probes(std::uint64_t round, Tracer& tracer) = 0;

  /// Uncompressed tensor bytes one op of `kind` handles.
  virtual double raw_bytes(OpKind kind) const = 0;
  virtual Flops compress_flops() const = 0;
  /// Raw bytes over archive bytes (over packed bytes with no archive).
  virtual double compression_ratio() const = 0;
  /// PSNR of the reference reconstruction against the input, peak 1.0.
  virtual double psnr_db() const = 0;
  /// Flips one byte of every reference output, for the self-check.
  virtual void corrupt_references() = 0;
  /// The session every timed op runs in.
  virtual const aic::Context& context() const = 0;
};

const std::vector<std::string>& workload_names();
/// Builds (sets up) the named workload; throws on an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Settings& settings);

}  // namespace perfbench
