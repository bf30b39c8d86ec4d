// Batched pairwise merge: merge many independent pairs of sorted arrays
// submitted as ONE kernel graph (cuDF/moderngpu-style vectorized API).
//
// Each pair is padded to full runs in a concatenated staging buffer and
// contributes two graph nodes — its partition kernel and its merge kernel,
// with one dependency edge between them.  Different pairs share no edges:
// their kernels are independent graph nodes that the executor overlaps
// (Launcher::run wavefronts), so the report carries both the serial kernel
// sum and the graph makespan.  The merge blocks look up their pair
// descriptor and run the same merge-window core as the sort's merge pass —
// so CF-Merge's zero-conflict guarantee carries over verbatim.  This is the
// natural library form of the paper's conclusion: the gather makes *any*
// parallel pair-of-arrays scan conflict free, including many scans at once.
//
// This header holds the report and descriptor types and the two kernel
// bodies; the entry point is a thin wrapper over sort::SortEngine
// (engine.hpp, included at the bottom), whose BatchedPlanT enqueues them.
// The engine keys batched plans by the full (|A|, |B|) shape list, so a
// repeated batch shape reuses its staging layout, tile descriptors, and
// kernel nodes.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "gpusim/launcher.hpp"
#include "gpusim/memory_views.hpp"
#include "sort/merge_pass.hpp"

namespace cfmerge::sort {

struct BatchedMergeReport {
  int pairs = 0;
  std::int64_t elements = 0;  ///< total merged elements across pairs
  double microseconds = 0.0;  ///< serial sum of all kernels
  /// Graph makespan: pairs are independent subgraphs, so this is the
  /// longest single pair's partition + merge chain.
  double makespan_microseconds = 0.0;
  int graph_levels = 0;  ///< 2 for a non-empty batch
  gpusim::Counters totals;
  gpusim::PhaseCounters phases;
  std::vector<gpusim::KernelReport> kernels;  ///< enqueue order, 2 per pair

  [[nodiscard]] double throughput() const {
    return microseconds > 0 ? static_cast<double>(elements) / microseconds : 0.0;
  }
  [[nodiscard]] double overlap_speedup() const {
    return makespan_microseconds > 0 ? microseconds / makespan_microseconds : 1.0;
  }
  [[nodiscard]] std::uint64_t merge_conflicts() const;
};

namespace detail {
/// Per-output-tile descriptor, precomputed on the host (in a real
/// implementation this is a tiny device array built by a setup kernel).
struct BatchTile {
  std::int32_t pair = 0;
  std::int64_t a_base = 0;  ///< staging offset of the pair's (padded) A run
  std::int64_t b_base = 0;
  std::int64_t ra = 0;      ///< real |A| of the pair
  std::int64_t rb = 0;
  std::int64_t diag0 = 0;   ///< output diagonal of this tile within the pair
  std::int64_t out_base = 0;  ///< offset of this tile in the packed output
};

/// Stage 1 for one pair: the start co-rank of each of the pair's output
/// tiles [t0, t0 + tcount).  One simulated thread per tile fetches its
/// descriptor (charged) and runs the Merge Path search over the pair's
/// staged A and B runs.
template <typename T>
void batched_partition_body(gpusim::BlockContext& ctx, std::span<const T> staging,
                            std::span<const BatchTile> tiles, int t0, int tcount,
                            std::span<std::int64_t> boundaries) {
  ctx.phase("partition.search");
  const int w = ctx.lanes();
  assert(w <= gpusim::kMaxLanes);
  const auto lw = static_cast<std::size_t>(w);
  gpusim::GlobalView<const T> global(ctx, staging, 0);
  for (int warp = 0; warp < ctx.warps(); ++warp) {
    std::array<mergepath::LaneSearch, gpusim::kMaxLanes> lanes{};
    std::array<std::int64_t, gpusim::kMaxLanes> abase{};
    std::array<std::int64_t, gpusim::kMaxLanes> bbase{};
    std::array<std::int64_t, gpusim::kMaxLanes> daddr;
    daddr.fill(gpusim::kInactiveLane);
    bool any = false;
    for (int lane = 0; lane < w; ++lane) {
      const auto l = static_cast<std::size_t>(lane);
      const std::int64_t local =
          static_cast<std::int64_t>(ctx.block_id()) * ctx.threads() + warp * w + lane;
      if (local >= tcount) continue;
      const std::int64_t t = t0 + local;
      const BatchTile& bt = tiles[static_cast<std::size_t>(t)];
      daddr[l] = t * static_cast<std::int64_t>(sizeof(BatchTile));
      abase[l] = bt.a_base;
      bbase[l] = bt.b_base;
      lanes[l].init(bt.diag0, bt.ra, bt.rb);
      any = true;
    }
    if (!any) continue;
    ctx.charge_gmem(warp, std::span<const std::int64_t>(daddr.data(), lw), 8,
                    /*dependent=*/true);  // descriptor fetch
    warp_global_corank<T>(ctx, warp, global,
                          std::span<mergepath::LaneSearch>(lanes.data(), lw),
                          std::span<const std::int64_t>(abase.data(), lw),
                          std::span<const std::int64_t>(bbase.data(), lw), std::less<T>{});
    for (int lane = 0; lane < w; ++lane) {
      const std::int64_t local =
          static_cast<std::int64_t>(ctx.block_id()) * ctx.threads() + warp * w + lane;
      if (local >= tcount) continue;
      boundaries[static_cast<std::size_t>(t0 + local)] =
          lanes[static_cast<std::size_t>(lane)].lo;
    }
  }
}

/// Stage 2 for one pair: merge block ctx.block_id() produces the pair's
/// output tile t0 + block_id into `packed`, through the same merge-window
/// core as the sort's merge pass.
template <typename T>
void batched_merge_body(gpusim::BlockContext& ctx, std::span<const T> staging,
                        std::span<T> packed, std::span<const BatchTile> tiles,
                        std::span<const std::int64_t> boundaries, int t0, int tcount,
                        const MergeConfig& cfg) {
  const std::int64_t tile = cfg.tile();
  const std::int64_t local = ctx.block_id();
  const auto t = static_cast<std::size_t>(t0 + local);
  const BatchTile& bt = tiles[t];
  ctx.phase("merge.load");
  {
    // Descriptor + both boundary co-ranks: one small global read.
    const auto w = static_cast<std::size_t>(ctx.lanes());
    assert(w <= static_cast<std::size_t>(gpusim::kMaxLanes));
    std::array<std::int64_t, gpusim::kMaxLanes> addr;
    addr.fill(gpusim::kInactiveLane);
    addr[0] = static_cast<std::int64_t>(t);
    gpusim::GlobalView<const std::int64_t> bv(ctx, boundaries, 0);
    std::array<std::int64_t, gpusim::kMaxLanes> vals;
    bv.gather(0, std::span<const std::int64_t>(addr.data(), w),
              std::span<std::int64_t>(vals.data(), w));
  }
  const std::int64_t a0 = boundaries[t];
  const bool last_tile_of_pair = local + 1 == tcount;
  const std::int64_t diag1 = bt.diag0 + tile;
  const std::int64_t a1 =
      last_tile_of_pair && diag1 >= bt.ra + bt.rb ? bt.ra : boundaries[t + 1];
  const std::int64_t b0 = bt.diag0 - a0;
  const std::int64_t la = a1 - a0;
  const std::int64_t lb = tile - la;

  gpusim::GlobalView<const T> gin(ctx, staging, 0);
  gpusim::GlobalView<T> gout(
      ctx,
      packed.subspan(static_cast<std::size_t>(bt.out_base), static_cast<std::size_t>(tile)),
      bt.out_base);
  merge_window_core<T>(ctx, gin, gout, bt.a_base + a0, bt.b_base + b0, la, lb, cfg,
                       std::less<T>{});
}

}  // namespace detail

}  // namespace cfmerge::sort

// The entry point (batched_merge) is a thin wrapper over sort::SortEngine
// and lives there; pulled in here so that including this header keeps
// providing it.
#include "sort/engine.hpp"
