#pragma once

#include <cstddef>

#include "core/dct_chop.hpp"
#include "graph/graph.hpp"

namespace aic::graph {

/// Batched problem description shared by the builders: `batch` samples of
/// `channels` planes at the codec's compiled resolution.
struct BatchSpec {
  std::size_t batch = 1;
  std::size_t channels = 1;
};

/// Lowers DCT+Chop compression (Eq. 4) to the graph IR:
///   input [B, C, H, W] -> reshape [B·C, H, W]
///   -> matmul(·, RHS) -> matmul(LHS, ·) -> reshape [B, C, H', W'].
/// Exactly two matmul nodes, as in the paper's PyTorch one-liner (§3.3).
/// The operand constants are the dense make_lhs/make_rhs operators for
/// `config` (its transform included).
Graph build_compress_graph(const core::DctChopConfig& config,
                           const BatchSpec& spec);

/// Lowers decompression (Eq. 6): the same operators with roles swapped.
Graph build_decompress_graph(const core::DctChopConfig& config,
                             const BatchSpec& spec);

/// Compression followed by the §3.5.2 triangle gather (IPU variant). The
/// gather indices are core::triangle_plane_indices, the order
/// TriangleCodec packs in.
Graph build_triangle_compress_graph(const core::DctChopConfig& config,
                                    const BatchSpec& spec);

/// Triangle scatter followed by decompression (IPU variant).
Graph build_triangle_decompress_graph(const core::DctChopConfig& config,
                                      const BatchSpec& spec);

/// A representative variable-length-encoding fragment (quantize, bit
/// shifts, masks — the guts of RLE/Huffman stages). Exists to be *fed to
/// the platform compilers and rejected*: §3.1's portability audit.
Graph build_vle_encode_graph(std::size_t values);

}  // namespace aic::graph
