// Pass 2 — the shared-memory shadow-state checker.
//
// ShadowChecker implements gpusim::MemoryAuditor: attach one to a Launcher
// (launcher.set_audit(&checker)) and every simulated shared access is
// validated against a per-word shadow of the tile:
//
//   uninitialized-read   a lane reads a word no charged write (and no raw()
//                        escape) ever produced
//   write-write-race     two active lanes of one scatter target the same
//                        word, or two different warps write the same word
//                        within one barrier epoch
//   out-of-bounds        a lane addresses beyond the tile (or a GlobalView
//                        index beyond the view)
//   conflict-mismatch    the hot-path cost accounting disagrees with an
//                        independent naive recount of the same access — the
//                        dynamic cross-check of Pass 1's cost model
//
// A checker's shadow state covers the tiles of ONE block, numbered in
// allocation order.  Attached to a Launcher, it never sees hooks itself:
// each block records into a private shard (block_shard()) with no locking,
// and the launcher folds the shards in block order (merge_from()), so the
// summary — violation order, the cap and the drop count included — is the
// same for every worker count.  Driving the hooks directly (tests, replays)
// is fine for a single block; hooks for a second block are rejected.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "gpusim/audit.hpp"
#include "verify/proof.hpp"

namespace cfmerge::verify {

class ShadowChecker final : public gpusim::MemoryAuditor {
 public:
  /// At most `max_violations` are stored verbatim; the rest only counted.
  explicit ShadowChecker(std::size_t max_violations = 64)
      : max_violations_(max_violations) {}

  void on_shared_alloc(int block, std::uint64_t tile_id, std::size_t words) override;
  void on_shared_raw(int block, std::uint64_t tile_id) override;
  void on_shared_access(int block, std::uint64_t tile_id, int warp,
                        std::string_view phase, std::span<const std::int64_t> addrs,
                        bool is_write, int banks, int charged_conflicts) override;
  void on_global_access(int block, int warp, std::string_view phase,
                        std::span<const std::int64_t> idxs, std::int64_t view_size,
                        bool is_write) override;
  void on_barrier(int block) override;
  void on_certified_skip(int block, std::uint64_t tile_id, std::int64_t lo,
                         std::int64_t hi, std::uint64_t accesses, int lanes,
                         bool is_write) override;
  [[nodiscard]] std::unique_ptr<gpusim::MemoryAuditor> block_shard() const override;
  /// Adds the shard's counts and appends its violations, applying this
  /// checker's cap.  Throws std::bad_cast unless `shard` is a ShadowChecker.
  void merge_from(const gpusim::MemoryAuditor& shard) override;

  /// Snapshot of everything observed so far.
  [[nodiscard]] ShadowSummary summary() const { return summary_; }
  /// Drops all shadow state and violations (e.g. between launches).
  void reset();

 private:
  struct Word {
    bool written = false;
    int writer_warp = -1;   ///< -2 = raw() escape, -3 = certified-skip bulk
    std::int64_t epoch = -1;
  };

  /// Binds the shadow state to `block` on first use; throws
  /// std::logic_error if another block's hooks arrive afterwards.
  void own(int block);
  /// The shadow words of `tile_id`, or nullptr if it was never allocated.
  std::vector<Word>* tile(std::uint64_t tile_id);
  void report(std::string kind, int block, int warp, std::string_view phase,
              std::int64_t addr, std::string detail);
  void record(ShadowViolation v);

  const std::size_t max_violations_;
  int block_ = -1;  ///< block the shadow state belongs to (-1: none yet)
  std::vector<std::vector<Word>> tiles_;  ///< indexed by tile_id
  std::int64_t epoch_ = 0;                ///< the block's barrier epoch
  ShadowSummary summary_;
};

}  // namespace cfmerge::verify
