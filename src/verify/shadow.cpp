#include "verify/shadow.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <stdexcept>

#include "gpusim/shared_memory.hpp"
#include "numtheory/numtheory.hpp"

namespace cfmerge::verify {

namespace {

/// Independent naive recount of one access's replay cost: distinct addresses
/// per bank, max over banks.  Deliberately the simplest possible
/// formulation, and never shared_access_cost — it cross-checks that
/// optimized hot path.  Fixed buffers bounded by the warp width: one mod per
/// distinct address, then a per-bank tally.
int naive_conflicts(std::span<const std::int64_t> addrs, int banks) {
  constexpr int kMax = gpusim::kMaxLanes;
  if (addrs.size() > static_cast<std::size_t>(kMax))
    throw std::invalid_argument("ShadowChecker: warp access wider than kMaxLanes lanes");
  if (banks <= 0 || banks > kMax)
    throw std::invalid_argument("ShadowChecker: bank count outside [1, kMaxLanes]");
  std::array<std::int64_t, kMax> distinct;
  const auto first = distinct.begin();
  auto last = first;
  for (const std::int64_t a : addrs)
    if (a != gpusim::kInactiveLane && std::find(first, last, a) == last) *last++ = a;
  std::array<int, kMax> tally{};
  int worst = 1;
  for (auto it = first; it != last; ++it)
    worst = std::max(worst, ++tally[static_cast<std::size_t>(numtheory::mod(*it, banks))]);
  return worst - 1;
}

}  // namespace

void ShadowChecker::own(int block) {
  if (block_ == block) return;
  if (block_ != -1) {
    std::ostringstream os;
    os << "ShadowChecker: shadow state belongs to block " << block_ << ", got a hook for block "
       << block << " (give each block its own block_shard())";
    throw std::logic_error(os.str());
  }
  block_ = block;
}

std::vector<ShadowChecker::Word>* ShadowChecker::tile(std::uint64_t tile_id) {
  return tile_id < tiles_.size() ? &tiles_[tile_id] : nullptr;
}

void ShadowChecker::record(ShadowViolation v) {
  if (summary_.violations.size() >= max_violations_) {
    ++summary_.dropped_violations;
    return;
  }
  summary_.violations.push_back(std::move(v));
}

void ShadowChecker::report(std::string kind, int block, int warp,
                           std::string_view phase, std::int64_t addr,
                           std::string detail) {
  record(ShadowViolation{std::move(kind), block, warp, std::string(phase), addr,
                         std::move(detail)});
}

void ShadowChecker::on_shared_alloc(int block, std::uint64_t tile_id,
                                    std::size_t words) {
  own(block);
  summary_.enabled = true;
  summary_.checked_words += words;
  if (tile_id >= tiles_.size()) tiles_.resize(tile_id + 1);
  tiles_[tile_id].assign(words, Word{});
}

void ShadowChecker::on_shared_raw(int block, std::uint64_t tile_id) {
  own(block);
  std::vector<Word>* words = tile(tile_id);
  if (words == nullptr) return;
  for (Word& w : *words) {
    w.written = true;
    w.writer_warp = -2;
    w.epoch = -1;
  }
}

void ShadowChecker::on_shared_access(int block, std::uint64_t tile_id, int warp,
                                     std::string_view phase,
                                     std::span<const std::int64_t> addrs,
                                     bool is_write, int banks, int charged_conflicts) {
  own(block);
  ++summary_.shared_accesses;

  const int recount = naive_conflicts(addrs, banks);
  if (recount != charged_conflicts) {
    std::ostringstream os;
    os << "cost model charged " << charged_conflicts << " conflicts, naive recount says "
       << recount;
    report("conflict-mismatch", block, warp, phase, -1, os.str());
  }

  std::vector<Word>* tile_words = tile(tile_id);
  if (tile_words == nullptr) return;
  std::vector<Word>& words = *tile_words;
  const std::int64_t epoch = epoch_;

  for (std::size_t lane = 0; lane < addrs.size(); ++lane) {
    const std::int64_t a = addrs[lane];
    if (a == gpusim::kInactiveLane) continue;
    if (a < 0 || a >= static_cast<std::int64_t>(words.size())) {
      std::ostringstream os;
      os << "lane " << lane << " addresses slot " << a << " of a "
         << words.size() << "-word tile";
      report("out-of-bounds", block, warp, phase, a, os.str());
      continue;
    }
    Word& w = words[static_cast<std::size_t>(a)];
    if (!is_write) {
      if (!w.written) {
        std::ostringstream os;
        os << "lane " << lane << " reads word " << a << " before any write reached it";
        report("uninitialized-read", block, warp, phase, a, os.str());
      }
      continue;
    }
    // Intra-access duplicate: two active lanes of one scatter on one word.
    for (std::size_t prev = 0; prev < lane; ++prev) {
      if (addrs[prev] == a) {
        std::ostringstream os;
        os << "lanes " << prev << " and " << lane << " both write word " << a
           << " in one scatter";
        report("write-write-race", block, warp, phase, a, os.str());
        break;
      }
    }
    // Cross-warp same-epoch write: unsynchronized warps racing on one word.
    if (w.written && w.writer_warp >= 0 && w.writer_warp != warp && w.epoch == epoch) {
      std::ostringstream os;
      os << "warps " << w.writer_warp << " and " << warp << " write word " << a
         << " in the same barrier epoch";
      report("write-write-race", block, warp, phase, a, os.str());
    }
    w.written = true;
    w.writer_warp = warp;
    w.epoch = epoch;
  }
}

void ShadowChecker::on_global_access(int block, int warp, std::string_view phase,
                                     std::span<const std::int64_t> idxs,
                                     std::int64_t view_size, bool is_write) {
  for (std::size_t lane = 0; lane < idxs.size(); ++lane) {
    const std::int64_t i = idxs[lane];
    if (i == gpusim::kInactiveLane) continue;
    if (i < 0 || i >= view_size) {
      std::ostringstream os;
      os << "lane " << lane << (is_write ? " writes" : " reads") << " global index "
         << i << " of a " << view_size << "-element view";
      report("out-of-bounds", block, warp, phase, i, os.str());
    }
  }
}

void ShadowChecker::on_barrier(int block) {
  own(block);
  ++epoch_;
}

void ShadowChecker::on_certified_skip(int block, std::uint64_t tile_id,
                                      std::int64_t lo, std::int64_t hi,
                                      std::uint64_t accesses, int lanes,
                                      bool is_write) {
  (void)lanes;
  own(block);
  summary_.skipped_accesses += accesses;
  if (!is_write) return;
  // Trust the Pass 3 certificate: its bounds / disjointness / coverage proof
  // stands in for per-word bookkeeping, so mark the whole reported range
  // written.  writer_warp -3 is excluded from the cross-warp race check, as
  // the certificate already proved intra-epoch write disjointness.
  std::vector<Word>* tile_words = tile(tile_id);
  if (tile_words == nullptr) return;
  std::vector<Word>& words = *tile_words;
  const std::int64_t epoch = epoch_;
  const std::int64_t end = std::min(hi, static_cast<std::int64_t>(words.size()));
  for (std::int64_t a = std::max<std::int64_t>(lo, 0); a < end; ++a) {
    Word& w = words[static_cast<std::size_t>(a)];
    w.written = true;
    w.writer_warp = -3;
    w.epoch = epoch;
  }
}

std::unique_ptr<gpusim::MemoryAuditor> ShadowChecker::block_shard() const {
  return std::make_unique<ShadowChecker>(max_violations_);
}

void ShadowChecker::merge_from(const gpusim::MemoryAuditor& shard) {
  // A shard kept at most max_violations_ of its own, and this checker can
  // admit no more than that from it, so the fold keeps exactly the first
  // max_violations_ violations of the block-ordered stream.
  const ShadowSummary& s = dynamic_cast<const ShadowChecker&>(shard).summary_;
  summary_.enabled = summary_.enabled || s.enabled;
  summary_.shared_accesses += s.shared_accesses;
  summary_.checked_words += s.checked_words;
  summary_.skipped_accesses += s.skipped_accesses;
  for (const ShadowViolation& v : s.violations) record(v);
  summary_.dropped_violations += s.dropped_violations;
}

void ShadowChecker::reset() {
  block_ = -1;
  tiles_.clear();
  epoch_ = 0;
  const bool enabled = summary_.enabled;
  summary_ = ShadowSummary{};
  summary_.enabled = enabled;
}

}  // namespace cfmerge::verify
