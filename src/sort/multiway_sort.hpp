// Full k-way multiway mergesort pipeline on the simulated GPU.
//
//   block sort  ->  ceil(log_k(n / tile)) k-way passes (partition + merge)
//
// Identical scaffolding to the pairwise pipeline (merge_sort.hpp) — padded
// input, stream-enqueued kernel chain, ping-pong buffers — but each global
// pass consumes k runs at once, so the global memory traffic shrinks by a
// factor of log2(k) while the in-shared work per tile grows by the same
// factor (the CFCascade runs log2(k) pairwise stages per tile).  The
// boundaries scratch is a flat (num_tiles+1) x k co-rank table per pass.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "gpusim/launcher.hpp"
#include "gpusim/occupancy.hpp"
#include "sort/block_sort.hpp"
#include "sort/multiway_pass.hpp"

namespace cfmerge::sort::detail {

/// Shared bytes of one multiway_merge block: the CFCascade's two stage
/// buffers (their capacity depends on the warp size), or one tile for the
/// LoserTree baseline.
template <typename T>
std::size_t multiway_merge_shared_bytes(const MultiwayConfig& cfg, int warp_size) {
  const std::int64_t slots =
      cfg.variant == MultiwayVariant::CFCascade
          ? 2 * gather::CascadePlan::capacity(cfg.tile(), warp_size, cfg.e, cfg.k)
          : cfg.tile();
  return static_cast<std::size_t>(slots) * sizeof(T);
}

/// Rejects a k-way configuration whose blocks do not fit on one SM of
/// `dev`, before any kernel runs (the timing model would only find out
/// after simulating the whole graph).
template <typename T>
void require_multiway_fits(const gpusim::DeviceSpec& dev, const MultiwayConfig& cfg) {
  const std::size_t sort_bytes =
      static_cast<std::size_t>(cfg.tile()) * sizeof(T) * (cfg.cf_blocksort ? 2 : 1);
  const std::size_t bytes =
      std::max(sort_bytes, multiway_merge_shared_bytes<T>(cfg, dev.warp_size));
  const int regs = cost::multiway_regs_per_thread(cfg.e, cfg.k);
  if (gpusim::compute_occupancy(dev, cfg.u, bytes, regs).blocks_per_sm == 0)
    throw std::invalid_argument(
        "sort_multiway: a k=" + std::to_string(cfg.k) + ", u=" + std::to_string(cfg.u) +
        " block needs " + std::to_string(bytes) + " shared bytes and " +
        std::to_string(regs) + " registers per thread and does not fit on an SM (" +
        std::to_string(dev.shared_bytes_per_sm) + " shared bytes per SM); lower u");
}

/// Enqueues the k-way sort pipeline for one padded buffer onto `stream`
/// (the multiway counterpart of enqueue_sort_pipeline).  `warp_size` fixes
/// the CFCascade's static shared-memory capacity, which depends on w.
/// Returns the buffer holding the sorted result after execution.
template <typename T>
std::vector<T>* enqueue_multiway_pipeline(gpusim::Stream& stream, std::vector<T>& buf,
                                          std::vector<T>& tmp,
                                          std::vector<std::int64_t>& boundaries,
                                          std::int64_t n_padded, const MultiwayConfig& cfg,
                                          int warp_size, int& passes) {
  const std::int64_t tile = cfg.tile();
  const int num_tiles = static_cast<int>(n_padded / tile);
  const int regs = cost::multiway_regs_per_thread(cfg.e, cfg.k);
  tmp.resize(static_cast<std::size_t>(n_padded));
  boundaries.assign((static_cast<std::size_t>(num_tiles) + 1) * static_cast<std::size_t>(cfg.k),
                    0);

  // --- stage 1: block sort (identical to the pairwise pipeline) -----------
  {
    gpusim::LaunchShape shape{num_tiles, cfg.u,
                              static_cast<std::size_t>(tile) * sizeof(T), regs};
    if (cfg.cf_blocksort) shape.shared_bytes_per_block *= 2;  // staging buffer
    stream.enqueue("block_sort", shape,
                   [&buf, e = cfg.e, cf_rounds = cfg.cf_blocksort,
                    certs = cfg.certs](gpusim::BlockContext& ctx) {
                     block_sort_body<T>(ctx, std::span<T>(buf), e, cf_rounds,
                                        std::less<T>{}, certs);
                   });
  }

  // --- stage 2: k-way merge passes -----------------------------------------
  const std::size_t mshared = multiway_merge_shared_bytes<T>(cfg, warp_size);

  std::vector<T>* src = &buf;
  std::vector<T>* dst = &tmp;
  passes = 0;
  for (std::int64_t run = tile; run < n_padded; run *= cfg.k) {
    ++passes;
    const PassGeometryK geom{n_padded, run, cfg.k};

    const auto nb = static_cast<std::int64_t>(num_tiles) + 1;
    const int pblocks = static_cast<int>((nb + cfg.u - 1) / cfg.u);
    gpusim::LaunchShape pshape{pblocks, cfg.u, 0, 24};
    stream.enqueue("multiway_partition", pshape,
                   [src, &boundaries, geom, tile](gpusim::BlockContext& ctx) {
                     multiway_partition_body<T>(ctx, std::span<const T>(*src), geom, tile,
                                                std::span<std::int64_t>(boundaries));
                   });

    gpusim::LaunchShape mshape{num_tiles, cfg.u, mshared, regs};
    stream.enqueue("multiway_merge", mshape,
                   [src, dst, &boundaries, geom, cfg](gpusim::BlockContext& ctx) {
                     multiway_tile_body<T>(ctx, std::span<const T>(*src), std::span<T>(*dst),
                                           geom, cfg,
                                           std::span<const std::int64_t>(boundaries));
                   });
    std::swap(src, dst);
  }
  return src;
}

}  // namespace cfmerge::sort::detail
