#include "graph/builders.hpp"

#include <vector>

#include "core/triangle.hpp"
#include "tensor/shape.hpp"

namespace aic::graph {

using tensor::Shape;

namespace {

// The dense Eq. 4/6 operators for one axis of `c` (honoring c.transform):
// the graph constants the accelerator simulators execute.
tensor::Tensor lhs_for(const core::DctChopConfig& c, std::size_t n) {
  return core::make_lhs(n, c.cf, c.block, c.transform);
}

tensor::Tensor rhs_for(const core::DctChopConfig& c, std::size_t n) {
  return core::make_rhs(n, c.cf, c.block, c.transform);
}

}  // namespace

Graph build_compress_graph(const core::DctChopConfig& config,
                           const BatchSpec& spec) {
  const std::size_t planes = spec.batch * spec.channels;
  const std::size_t ch = config.cf * config.height / config.block;
  const std::size_t cw = config.cf * config.width / config.block;

  Graph g;
  const NodeId in = g.input(
      Shape::bchw(spec.batch, spec.channels, config.height, config.width));
  const NodeId flat =
      g.reshape(in, Shape({planes, config.height, config.width}));
  const NodeId lhs = g.constant(lhs_for(config, config.height));
  const NodeId rhs = g.constant(rhs_for(config, config.width));
  // Y = LHS · (A · RHS)  — torch.matmul(LHS, torch.matmul(A, RHS)).
  const NodeId mid = g.matmul(flat, rhs);
  const NodeId packed = g.matmul(lhs, mid);
  const NodeId out =
      g.reshape(packed, Shape::bchw(spec.batch, spec.channels, ch, cw));
  g.mark_output(out);
  return g;
}

Graph build_decompress_graph(const core::DctChopConfig& config,
                             const BatchSpec& spec) {
  const std::size_t planes = spec.batch * spec.channels;
  const std::size_t ch = config.cf * config.height / config.block;
  const std::size_t cw = config.cf * config.width / config.block;

  Graph g;
  const NodeId in = g.input(Shape::bchw(spec.batch, spec.channels, ch, cw));
  const NodeId flat = g.reshape(in, Shape({planes, ch, cw}));
  // A' = RHS · (Y · LHS)  — torch.matmul(RHS, torch.matmul(Y, LHS)).
  const NodeId lhs = g.constant(lhs_for(config, config.width));
  const NodeId rhs = g.constant(rhs_for(config, config.height));
  const NodeId mid = g.matmul(flat, lhs);
  const NodeId restored = g.matmul(rhs, mid);
  const NodeId out = g.reshape(
      restored,
      Shape::bchw(spec.batch, spec.channels, config.height, config.width));
  g.mark_output(out);
  return g;
}

Graph build_triangle_compress_graph(const core::DctChopConfig& config,
                                    const BatchSpec& spec) {
  const std::size_t planes = spec.batch * spec.channels;
  const std::size_t ch = config.cf * config.height / config.block;
  const std::size_t cw = config.cf * config.width / config.block;

  Graph g;
  const NodeId in = g.input(
      Shape::bchw(spec.batch, spec.channels, config.height, config.width));
  const NodeId flat =
      g.reshape(in, Shape({planes, config.height, config.width}));
  const NodeId mid =
      g.matmul(flat, g.constant(rhs_for(config, config.width)));
  const NodeId packed =
      g.matmul(g.constant(lhs_for(config, config.height)), mid);
  // torch.gather with compile-time triangle indices (§3.5.2).
  const NodeId rows = g.reshape(packed, Shape({planes, 1, ch * cw}));
  const NodeId gathered = g.gather(
      rows, core::triangle_plane_indices(config.height, config.width,
                                         config.cf, config.block));
  g.mark_output(gathered);
  return g;
}

Graph build_triangle_decompress_graph(const core::DctChopConfig& config,
                                      const BatchSpec& spec) {
  const std::size_t planes = spec.batch * spec.channels;
  const std::size_t ch = config.cf * config.height / config.block;
  const std::size_t cw = config.cf * config.width / config.block;
  const std::vector<std::size_t> indices = core::triangle_plane_indices(
      config.height, config.width, config.cf, config.block);

  Graph g;
  const NodeId in = g.input(Shape({planes, 1, indices.size()}));
  // torch.scatter back into the chopped layout, then Eq. 6.
  const NodeId scattered = g.scatter(in, indices, ch * cw);
  const NodeId planes3 = g.reshape(scattered, Shape({planes, ch, cw}));
  const NodeId lhs = g.constant(lhs_for(config, config.width));
  const NodeId rhs = g.constant(rhs_for(config, config.height));
  const NodeId mid = g.matmul(planes3, lhs);
  const NodeId restored = g.matmul(rhs, mid);
  const NodeId out = g.reshape(
      restored,
      Shape::bchw(spec.batch, spec.channels, config.height, config.width));
  g.mark_output(out);
  return g;
}

Graph build_vle_encode_graph(std::size_t values) {
  Graph g;
  const NodeId in = g.input(Shape::vector(values));
  // Quantize, then pack two 16-bit fields per word: the minimal shape of
  // every RLE/Huffman emitter.
  const NodeId quantized = g.quantize(in, 1.0f / 64.0f);
  const NodeId mask = g.constant(
      tensor::Tensor::full(Shape::vector(values), 65535.0f));
  const NodeId low = g.bit_and(quantized, mask);
  const NodeId high = g.bit_shift_left(low, 16);
  const NodeId packed = g.bit_or(high, low);
  const NodeId trimmed = g.bit_shift_right(packed, 8);
  g.mark_output(trimmed);
  return g;
}

}  // namespace aic::graph
