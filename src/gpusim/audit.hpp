// Memory-audit hook interface (opt-in instrumentation).
//
// A MemoryAuditor observes every simulated memory event — shared tile
// allocations, warp-wide shared/global accesses, barriers — without taking
// part in cost accounting.  The simulator core only ever talks to this
// abstract interface; the concrete shadow-state checker lives in
// src/verify/shadow.* so gpusim carries no dependency on the verifier.
//
// Blocks may be simulated on a pool of host threads, so an auditor attached
// to a Launcher never sees hooks directly: every block records into a private
// shard (block_shard()), and after all blocks of a launch or graph have
// succeeded the launcher folds the shards into the attached auditor in
// (enqueue id, block id) order (merge_from()).  Hooks therefore need no
// synchronization, the folded result is identical for every worker count, and
// a throwing kernel commits no audit state.  All hooks are called after the
// access's cost has been computed (and before data movement), with the same
// address span the cost model saw.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

namespace cfmerge::gpusim {

class MemoryAuditor {
 public:
  virtual ~MemoryAuditor() = default;

  /// A SharedTile of `words` elements came to life in `block`.  `tile_id` is
  /// unique within the block (allocation order).
  virtual void on_shared_alloc(int block, std::uint64_t tile_id, std::size_t words) = 0;

  /// The whole tile was handed out as a raw span (test setup / verification
  /// escape hatch): its contents must be treated as externally initialized.
  virtual void on_shared_raw(int block, std::uint64_t tile_id) = 0;

  /// One warp-wide shared access on a tile: element addresses per lane
  /// (kInactiveLane idle), whether it writes, the bank count, and the
  /// conflict count the cost model charged for it.
  virtual void on_shared_access(int block, std::uint64_t tile_id, int warp,
                                std::string_view phase,
                                std::span<const std::int64_t> addrs, bool is_write,
                                int banks, int charged_conflicts) = 0;

  /// One warp-wide access through a GlobalView: element indices per lane
  /// (kInactiveLane idle) and the view's element count.
  virtual void on_global_access(int block, int warp, std::string_view phase,
                                std::span<const std::int64_t> idxs,
                                std::int64_t view_size, bool is_write) = 0;

  /// Block-wide barrier (ends a write epoch for race checking).
  virtual void on_barrier(int block) = 0;

  /// A statically safety-certified access progression ran without per-lane
  /// audit (Launcher audit=certified-skip mode): `accesses` warp-wide
  /// accesses of `lanes` active lanes each, every address inside [lo, hi)
  /// of the tile.  The backing Pass 3 certificate (verify/safety) proves
  /// bounds, pairwise-disjoint writes and read coverage for the pattern, so
  /// implementations may account the whole range at once instead of
  /// replaying lanes.  Default: ignore.
  virtual void on_certified_skip(int block, std::uint64_t tile_id, std::int64_t lo,
                                 std::int64_t hi, std::uint64_t accesses, int lanes,
                                 bool is_write) {
    (void)block;
    (void)tile_id;
    (void)lo;
    (void)hi;
    (void)accesses;
    (void)lanes;
    (void)is_write;
  }

  /// A fresh, empty auditor of the same configuration that records one
  /// block's hooks.  Called concurrently by the launcher's workers, so it
  /// must not modify this auditor.
  [[nodiscard]] virtual std::unique_ptr<MemoryAuditor> block_shard() const = 0;

  /// Folds everything `shard` (a block_shard() of this auditor) observed
  /// into this auditor, as if its hooks had been called here.  The launcher
  /// calls it once per block, in block order, on one thread.
  virtual void merge_from(const MemoryAuditor& shard) = 0;
};

}  // namespace cfmerge::gpusim
