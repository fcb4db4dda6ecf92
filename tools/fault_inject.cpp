// Fault-injection harness over every hardened decode path.
//
// Modes:
//   fault_inject --matrix              run the built-in mutation matrix
//                                      over all targets (default), then
//                                      replay the v4 targets through the
//                                      mmap (io::MappedFile) decode path
//                                      and through restore_archive, the
//                                      reader aicomp decompress/verify run
//   fault_inject --mmap-matrix         only the mmap replay pass
//   fault_inject --write-corpus <dir>  write fuzz corpus seeds and exit
//   fault_inject <file>...             replay raw mutant files through the
//                                      archive decoder (crash triage)
//
// Exit status is 0 only when every mutant either decoded bitwise-exactly
// or raised aic::io::CorruptStream.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/archive.hpp"
#include "cli/robustness_suite.hpp"
#include "io/error.hpp"
#include "io/mapped_file.hpp"
#include "io/tensor_io.hpp"
#include "obs/flight_recorder.hpp"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace {

/// Arms the flight recorder (memory-only: no per-mutant dump files) so a
/// matrix run doubles as a check that io::raise_corrupt() hands every
/// typed rejection to the recorder. A drift between `rejected` and the
/// obs.flight_dumps delta means some decode path throws CorruptStream
/// without going through raise_corrupt — a silent-drop regression.
struct FlightAudit {
  bool armed_here = false;
  std::uint64_t dumps_before = 0;

  FlightAudit() {
    aic::obs::flight::Options flight_options;
    flight_options.dump_on_corrupt = false;
    flight_options.signals = false;
    flight_options.terminate = false;
    armed_here = aic::obs::flight::arm(flight_options);
    dumps_before = aic::obs::flight::dumps();
  }

  /// Returns true when every typed rejection produced exactly one flight
  /// record.
  bool check(std::size_t total_rejected) {
    const std::uint64_t flight_records =
        aic::obs::flight::dumps() - dumps_before;
    if (armed_here) aic::obs::flight::disarm();
    std::cout << "flight records: " << flight_records << " for "
              << total_rejected << " typed rejections\n";
    if (flight_records != total_rejected) {
      std::cout << "  FAILURE flight-recorder record count != typed "
                << "rejections (a CorruptStream was thrown without "
                << "raise_corrupt)\n";
      return false;
    }
    return true;
  }
};

/// The mmap replay temp file, reused across every mutant so the sweep
/// costs one inode, not thousands.
std::filesystem::path mmap_replay_path() {
#ifndef _WIN32
  const std::string pid = std::to_string(static_cast<long long>(::getpid()));
#else
  const std::string pid = "win";
#endif
  return std::filesystem::temp_directory_path() /
         ("aic_fault_inject_mmap_" + pid + ".aicz");
}

std::string restore(const aic::cli::Archive& archive) {
  const aic::tensor::Tensor restored =
      archive.codec->decompress(archive.packed, archive.original_shape);
  return aic::io::serialize_tensor(restored);
}

/// Replays the v4 archive targets' full mutation matrices through another
/// decode front end (`pass` names it). The contract is identical to the
/// in-memory matrix: bitwise-exact decode or a typed CorruptStream, with
/// flight-recorder accounting intact (the front end must not change
/// where rejections surface).
int run_v4_replay(const std::string& pass, const aic::io::DecodeFn& decode) {
  FlightAudit audit;
  bool ok = true;
  std::size_t total_rejected = 0;
  for (const aic::cli::RobustnessTarget& target :
       aic::cli::robustness_targets(AIC_CORPUS_DIR)) {
    if (target.name.find(":v4") == std::string::npos) continue;
    const aic::io::FaultReport report =
        aic::io::run_fault_matrix(target.bytes, decode, target.options);
    std::cout << target.name << " [" << pass << "]: " << report.summary()
              << "\n";
    for (const std::string& failure : report.failures) {
      std::cout << "  FAILURE " << failure << "\n";
    }
    total_rejected += report.rejected;
    ok = ok && report.ok();
  }
  ok = audit.check(total_rejected) && ok;
  std::cout << pass << (ok ? " fault matrix clean" : " fault matrix FAILED")
            << "\n";
  return ok ? 0 : 1;
}

/// The zero-copy file path: each mutant is written to a reused temp file,
/// mapped with io::MappedFile, and decoded straight out of the mapping —
/// the exact bytes-never-touch-a-heap-string route `aicomp decompress`
/// takes.
int run_mmap_matrix() {
  const std::filesystem::path path = mmap_replay_path();
  const int status =
      run_v4_replay("mmap", [&path](const std::string& bytes) {
        {
          std::ofstream file(path, std::ios::binary | std::ios::trunc);
          file.write(bytes.data(),
                     static_cast<std::streamsize>(bytes.size()));
        }
        const aic::io::MappedFile file(path.string());
        return restore(aic::cli::deserialize_archive(file.view()));
      });
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return status;
}

/// The CLI's reader: each mutant is restored plane group by plane group
/// by restore_archive, the path aicomp decompress/verify take. A mutant it
/// restores must give the bytes decode_archive_bytes gives for it.
int run_restore_matrix() {
  return run_v4_replay("restore", [](const std::string& bytes) {
    std::ostringstream out;
    (void)aic::cli::restore_archive(bytes, &out);
    if (out.str() != aic::cli::decode_archive_bytes(bytes)) {
      throw std::logic_error(
          "restore_archive and deserialize_archive disagree");
    }
    return out.str();
  });
}

int run_matrix() {
  FlightAudit audit;
  bool ok = true;
  std::size_t total_rejected = 0;
  for (const auto& [name, report] :
       aic::cli::run_robustness_suite(AIC_CORPUS_DIR)) {
    std::cout << name << ": " << report.summary() << "\n";
    for (const std::string& failure : report.failures) {
      std::cout << "  FAILURE " << failure << "\n";
    }
    total_rejected += report.rejected;
    ok = ok && report.ok();
  }
  ok = audit.check(total_rejected) && ok;
  std::cout << (ok ? "fault matrix clean" : "fault matrix FAILED") << "\n";
  // The v4 targets go through again via mmap and via restore_archive so
  // every decode front end faces the identical mutant set.
  const int mmap_status = run_mmap_matrix();
  const int restore_status = run_restore_matrix();
  return ok && mmap_status == 0 && restore_status == 0 ? 0 : 1;
}

int write_corpus(const std::string& dir) {
  const std::vector<std::string> written =
      aic::cli::write_fuzz_corpus(dir, AIC_CORPUS_DIR);
  for (const std::string& path : written) std::cout << path << "\n";
  std::cout << written.size() << " corpus seeds written\n";
  return 0;
}

int replay(const std::vector<std::string>& paths) {
  int status = 0;
  for (const std::string& path : paths) {
    std::ifstream file(path, std::ios::binary);
    if (!file) {
      std::cerr << path << ": cannot open\n";
      status = 1;
      continue;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    try {
      const std::string decoded =
          aic::cli::decode_archive_bytes(buffer.str());
      std::cout << path << ": decoded (" << decoded.size() << " bytes)\n";
    } catch (const aic::io::CorruptStream& error) {
      std::cout << path << ": rejected: " << error.what() << "\n";
    } catch (const std::exception& error) {
      std::cout << path << ": UNTYPED " << error.what() << "\n";
      status = 1;
    }
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.empty() || args[0] == "--matrix") return run_matrix();
    if (args[0] == "--mmap-matrix") return run_mmap_matrix();
    if (args[0] == "--write-corpus") {
      if (args.size() != 2) {
        std::cerr << "usage: fault_inject --write-corpus <dir>\n";
        return 2;
      }
      return write_corpus(args[1]);
    }
    return replay(args);
  } catch (const std::exception& error) {
    std::cerr << "fault_inject: " << error.what() << "\n";
    return 1;
  }
}
