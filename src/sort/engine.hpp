// Plan/execute split for every sort entry point — the cuFFT/CUB two-phase
// shape, applied to the simulated mergesort library.
//
// A SortEngine is a long-lived object owning
//
//  * a **plan cache**: plans are keyed by (shape class, padded length /
//    batch shape digest, MergeConfig) — the kernel-graph structure is a
//    pure function of that key (merge-path partitioning fixes the pass and
//    tile decisions from n_padded and cfg alone), so a plan built once can
//    execute any input of the same shape.  A plan owns BOTH its
//    KernelGraph template and every buffer the graph's bodies capture
//    (buf/tmp/boundaries, or the batched staging/packed/descriptor
//    arrays), which closes the latent lifetime footgun of the free
//    functions: the storage a body references can no longer die or move
//    while the graph is still runnable.  Executing a cached plan is
//    "rebind by refilling": copy the new input into the plan's buffers
//    (sentinel tails refreshed) and Launcher::run the graph again — the
//    KernelGraph replay contract (kernel_graph.hpp) guarantees reports
//    bit-identical to a freshly enqueued pipeline.
//
//  * a **scratch arena**: a pool of typed, reusable vectors for per-call
//    scratch that is not part of any plan (today: merge_sort_by_key's
//    KeyValue pair buffer).  acquire<T>(n) hands out an RAII Lease; the
//    backing allocation returns to the pool when the lease drops.
//
//  * optionally a **persistent store** (set_store): plan identity is
//    content-addressed (sort/plan_key.hpp), so a cache::PlanCacheStore can
//    carry plan metadata and autotune results across processes.  In-memory
//    misses consult it (disk_* counters in EngineStats) and builds write
//    back; see cache/store.hpp and docs/architecture.md.
//
// Cache semantics: the cache holds *idle* plan instances.  acquire removes
// an instance from the free list (a hit), so two same-shaped segments of
// one segmented_sort batch get two distinct instances — both are returned
// afterwards and the next batch hits twice.  Instances beyond the
// configured capacity are evicted least-recently-released; disabling the
// cache (set_plan_cache_enabled(false)) drops all idle plans and makes
// every acquire a miss, which is what `cfsort --no-plan-cache` uses to
// show the un-amortized cost.
//
// Execution: sort, sort_multiway and permute run one private `execute`
// step (clear the launcher's history, validate — for sort_multiway that
// includes rejecting a block that does not fit on an SM — certify, key +
// acquire + load the plan, run its graph, copy out, fill the report,
// release the plan) over plans that share one base, PaddedPlanT;
// segmented_sort reuses its key/acquire/load step per segment, and one
// by-key adapter stages both key-value entry points through the scratch
// arena.
//
// The six free entry points (merge_sort, merge_sort_by_key,
// merge_sort_multiway, merge_sort_multiway_by_key, segmented_sort,
// batched_merge) are thin wrappers: one-shot engine use, reports
// bit-identical to the pre-engine implementations (asserted by
// test_sort_engine across thread counts and GraphExec modes).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <typeindex>
#include <utility>
#include <vector>

#include "cache/store.hpp"
#include "cfprims/permute.hpp"
#include "gpusim/launcher.hpp"
#include "numtheory/hash.hpp"
#include "sort/batched_merge.hpp"
#include "sort/key_value.hpp"
#include "sort/merge_pass.hpp"
#include "sort/merge_sort.hpp"
#include "sort/multiway_sort.hpp"
#include "sort/plan_key.hpp"
#include "sort/segmented_sort.hpp"

namespace cfmerge::sort {

/// Engine counters: cumulative plan-cache traffic plus a snapshot of what
/// the cache and arena currently hold.  Emitted into the cfsort /
/// sim_hotpath JSON reports.
struct EngineStats {
  std::uint64_t plan_hits = 0;       ///< acquires served from the cache
  std::uint64_t plan_misses = 0;     ///< acquires that built a new plan
  std::uint64_t plan_evictions = 0;  ///< idle plans dropped over capacity
  std::uint64_t plans_cached = 0;    ///< idle plan instances held right now
  std::uint64_t plan_bytes = 0;      ///< storage owned by those idle plans
  std::uint64_t arena_bytes = 0;     ///< pooled scratch-arena storage
  std::uint64_t arena_allocs = 0;    ///< arena acquires that allocated
  std::uint64_t arena_reuses = 0;    ///< arena acquires served from the pool
  std::uint64_t bulk_charges = 0;    ///< warp accesses charged in closed form
  std::uint64_t lane_charges = 0;    ///< warp accesses charged per lane
  std::uint64_t audit_skipped_accesses = 0;  ///< audit replays elided by safety certs
  std::uint64_t cert_hits = 0;       ///< certify() calls served from the memo
  std::uint64_t cert_misses = 0;     ///< certify() calls that ran the prover
  std::uint64_t certs_cached = 0;    ///< distinct certificates held right now
  // Persistent (disk) plan & autotune cache, when one is attached — the
  // whole-process traffic of the cache::PlanCacheStore, which also counts
  // autotune lookups routed through the same store.
  std::uint64_t disk_hits = 0;       ///< store lookups that found an entry
  std::uint64_t disk_misses = 0;     ///< store lookups that found nothing
  std::uint64_t disk_writes = 0;     ///< entries written (plan metadata, tune results)
  std::uint64_t disk_evictions = 0;  ///< entries dropped by the LRU size cap
  std::uint64_t disk_corrupt = 0;    ///< unreadable store files ignored + rebuilt
  std::uint64_t disk_entries = 0;    ///< persisted entries held right now
  std::uint64_t disk_bytes = 0;      ///< serialized store size right now
  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = plan_hits + plan_misses;
    return total > 0 ? static_cast<double>(plan_hits) / static_cast<double>(total) : 0.0;
  }
  /// Fraction of warp accesses charged by the bulk path.
  [[nodiscard]] double bulk_rate() const {
    const std::uint64_t total = bulk_charges + lane_charges;
    return total > 0 ? static_cast<double>(bulk_charges) / static_cast<double>(total) : 0.0;
  }
};

/// Typed pool of reusable scratch vectors.  acquire<T>(n) returns an RAII
/// lease on a std::vector<T> resized to n; dropping the lease returns the
/// allocation (capacity intact) to the pool for the next same-typed
/// acquire.  Not thread-safe — an engine, like a Launcher, serves one
/// caller at a time.
class ScratchArena {
 public:
  template <typename T>
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& o) noexcept : arena_(o.arena_), slot_(o.slot_), vec_(o.vec_) {
      o.arena_ = nullptr;
      o.vec_ = nullptr;
    }
    Lease& operator=(Lease&& o) noexcept {
      if (this != &o) {
        reset();
        arena_ = std::exchange(o.arena_, nullptr);
        slot_ = o.slot_;
        vec_ = std::exchange(o.vec_, nullptr);
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { reset(); }

    [[nodiscard]] std::vector<T>& operator*() const { return *vec_; }
    [[nodiscard]] std::vector<T>* operator->() const { return vec_; }

   private:
    friend class ScratchArena;
    Lease(ScratchArena* arena, std::size_t slot, std::vector<T>* vec)
        : arena_(arena), slot_(slot), vec_(vec) {}
    void reset() {
      if (arena_ != nullptr) arena_->release(slot_);
      arena_ = nullptr;
      vec_ = nullptr;
    }

    ScratchArena* arena_ = nullptr;
    std::size_t slot_ = 0;
    std::vector<T>* vec_ = nullptr;
  };

  template <typename T>
  [[nodiscard]] Lease<T> acquire(std::size_t n) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& s = slots_[i];
      if (!s.in_use && s.type == std::type_index(typeid(T))) {
        s.in_use = true;
        ++reuses_;
        auto* vec = static_cast<std::vector<T>*>(s.storage.get());
        vec->resize(n);
        return Lease<T>(this, i, vec);
      }
    }
    ++allocs_;
    auto storage = std::make_shared<std::vector<T>>(n);
    auto* vec = storage.get();
    slots_.push_back(Slot{std::type_index(typeid(T)), true, 0, std::move(storage),
                          [](const void* p) -> std::uint64_t {
                            const auto* v = static_cast<const std::vector<T>*>(p);
                            return v->capacity() * sizeof(T);
                          }});
    return Lease<T>(this, slots_.size() - 1, vec);
  }

  /// Bytes currently held by the pool (leased or idle).
  [[nodiscard]] std::uint64_t pooled_bytes() const;
  [[nodiscard]] std::uint64_t allocs() const { return allocs_; }
  [[nodiscard]] std::uint64_t reuses() const { return reuses_; }

  /// Drops every idle slot.  Leased slots survive until their lease ends.
  void clear();

 private:
  struct Slot {
    std::type_index type;
    bool in_use = false;
    std::uint64_t bytes = 0;  ///< measured at release (capacity * sizeof)
    std::shared_ptr<void> storage;
    std::uint64_t (*measure)(const void*) = nullptr;
  };

  void release(std::size_t slot);

  std::vector<Slot> slots_;
  std::uint64_t allocs_ = 0;
  std::uint64_t reuses_ = 0;
};

namespace detail {

// PlanKey (the content-addressed cache key) and its digests live in
// sort/plan_key.hpp; the engine adds only the store-key framing here.

/// The persistent-store key for a plan's metadata: a record tag, the
/// device's content digest, then the schema-versioned PlanKey bytes.
inline std::vector<std::byte> plan_store_key(std::uint64_t device_digest,
                                             const PlanKey& key) {
  cache::ByteWriter w;
  w.str("plan");
  w.u64(device_digest);
  key.serialize(w);
  return w.take();
}

/// What every padded single-array plan owns: the input buffer (sentinel
/// padded to n_padded), the ping-pong scratch, the partition boundaries,
/// the kernel graph whose bodies capture them, and `result`, the buffer
/// holding the output after the graph ran.  Plans are heap-allocated and
/// pinned (no copy/move): the graph's kernel bodies hold references into
/// these buffers.  A derived plan adds its config and enqueues its graph.
template <typename T>
struct PaddedPlanT {
  std::int64_t n_padded = 0;
  int passes = 0;  ///< global merge passes (0 for a one-kernel plan)
  std::vector<T> buf, tmp;
  std::vector<std::int64_t> boundaries;
  std::vector<T>* result = nullptr;  ///< buf or tmp, fixed by the graph
  gpusim::KernelGraph graph;
  /// The engine hands back the whole padded output, not just the first n.
  static constexpr bool kReturnsPadded = false;

  explicit PaddedPlanT(std::int64_t np) : n_padded(np) {
    buf.assign(static_cast<std::size_t>(np), padding_sentinel<T>::value());
  }
  PaddedPlanT(const PaddedPlanT&) = delete;
  PaddedPlanT& operator=(const PaddedPlanT&) = delete;

  /// Rebind: load the next input.  The sentinel tail is rewritten because a
  /// previous execution leaves buf holding that run's intermediate data.
  void load(const std::vector<T>& data) {
    std::copy(data.begin(), data.end(), buf.begin());
    std::fill(buf.begin() + static_cast<std::ptrdiff_t>(data.size()), buf.end(),
              padding_sentinel<T>::value());
  }

  [[nodiscard]] std::uint64_t footprint_bytes() const {
    return (buf.capacity() + tmp.capacity()) * sizeof(T) +
           boundaries.capacity() * sizeof(std::int64_t);
  }
};

/// A cached single-array sort plan: enqueue_sort_pipeline's graph.
template <typename T>
struct SortPlanT : PaddedPlanT<T> {
  MergeConfig cfg;

  SortPlanT(const MergeConfig& c, std::int64_t np) : PaddedPlanT<T>(np), cfg(c) {
    gpusim::Stream stream = this->graph.stream();
    this->result = enqueue_sort_pipeline(stream, this->buf, this->tmp, this->boundaries, np,
                                         cfg, this->passes);
  }
};

/// A cached k-way sort plan: enqueue_multiway_pipeline's graph.  Keyed
/// under Kind::Multiway; every knob — (k, variant) included — lives in
/// config_digest(MultiwayConfig).
template <typename T>
struct MultiwayPlanT : PaddedPlanT<T> {
  MultiwayConfig cfg;

  MultiwayPlanT(const MultiwayConfig& c, std::int64_t np, int warp_size)
      : PaddedPlanT<T>(np), cfg(c) {
    gpusim::Stream stream = this->graph.stream();
    this->result = enqueue_multiway_pipeline(stream, this->buf, this->tmp, this->boundaries,
                                             np, cfg, warp_size, this->passes);
  }
};

/// A cached permute/transpose plan: the one-kernel cfprims pipeline from
/// buf into tmp.  Keyed under Kind::Permute / Transpose; the (op, inverse)
/// direction bits live in config_digest(PermuteConfig).
template <typename T>
struct PermutePlanT : PaddedPlanT<T> {
  cfprims::PermuteConfig cfg;
  static constexpr bool kReturnsPadded = true;

  PermutePlanT(const cfprims::PermuteConfig& c, std::int64_t np)
      : PaddedPlanT<T>(np), cfg(c) {
    this->tmp.assign(static_cast<std::size_t>(np), padding_sentinel<T>::value());
    this->result = &this->tmp;
    gpusim::Stream stream = this->graph.stream();
    cfprims::enqueue_permute_pipeline(stream, this->buf, this->tmp, np, cfg);
  }
};

/// A cached batched-merge plan: the staging layout, per-tile descriptors,
/// both kernel nodes per pair, and the packed output buffer.  The staging
/// sentinel pads are written once at build time — kernels only read
/// staging, so rebinding just overwrites the real |A| / |B| prefixes.
template <typename T>
struct BatchedPlanT {
  MergeConfig cfg;
  std::int64_t elements = 0;  ///< total real output elements of the shape
  std::vector<T> staging;
  std::vector<T> packed;
  std::vector<BatchTile> tiles;
  std::vector<int> pair_tile0;
  std::vector<std::int64_t> out_sizes;
  std::vector<std::int64_t> boundaries;
  gpusim::KernelGraph graph;

  BatchedPlanT(const std::vector<std::vector<T>>& as, const std::vector<std::vector<T>>& bs,
               const MergeConfig& c)
      : cfg(c) {
    const std::int64_t tile = cfg.tile();
    const T sentinel = padding_sentinel<T>::value();

    // Stage every pair as [A pad | B pad] with both runs padded to the same
    // multiple of the tile, and precompute per-tile descriptors.
    pair_tile0.resize(as.size());
    out_sizes.resize(as.size());
    std::int64_t packed_out = 0;
    for (std::size_t p = 0; p < as.size(); ++p) {
      pair_tile0[p] = static_cast<int>(tiles.size());
      const auto na = static_cast<std::int64_t>(as[p].size());
      const auto nb = static_cast<std::int64_t>(bs[p].size());
      out_sizes[p] = na + nb;
      elements += na + nb;
      const std::int64_t run = std::max<std::int64_t>(
          {(na + tile - 1) / tile * tile, (nb + tile - 1) / tile * tile, tile});
      const std::int64_t a_base = static_cast<std::int64_t>(staging.size());
      staging.insert(staging.end(), as[p].begin(), as[p].end());
      staging.resize(static_cast<std::size_t>(a_base + run), sentinel);
      const std::int64_t b_base = static_cast<std::int64_t>(staging.size());
      staging.insert(staging.end(), bs[p].begin(), bs[p].end());
      staging.resize(static_cast<std::size_t>(b_base + run), sentinel);
      for (std::int64_t d = 0; d < 2 * run; d += tile) {
        tiles.push_back({static_cast<std::int32_t>(p), a_base, b_base, run, run, d,
                         packed_out + d});
      }
      packed_out += 2 * run;
    }
    packed.resize(static_cast<std::size_t>(packed_out));
    boundaries.assign(tiles.size(), 0);

    // Two graph nodes per pair — partition -> merge, no cross-pair edges —
    // whose bodies (batched_merge.hpp) read and write plan members.
    const int regs = cfg.variant == Variant::CFMerge
                         ? cost::cfmerge_regs_per_thread(cfg.e)
                         : cost::baseline_regs_per_thread(cfg.e);
    for (std::size_t p = 0; p < as.size(); ++p) {
      const int t0 = pair_tile0[p];
      const int tcount =
          (p + 1 < as.size() ? pair_tile0[p + 1] : static_cast<int>(tiles.size())) - t0;

      const int pblocks = (tcount + cfg.u - 1) / cfg.u;
      const gpusim::NodeId partition = graph.add(
          "batched_partition", gpusim::LaunchShape{pblocks, cfg.u, 0, 24},
          [this, t0, tcount](gpusim::BlockContext& ctx) {
            batched_partition_body<T>(ctx, std::span<const T>(staging),
                                      std::span<const BatchTile>(tiles), t0, tcount,
                                      std::span<std::int64_t>(boundaries));
          });
      graph.add(
          "batched_merge",
          gpusim::LaunchShape{tcount, cfg.u, static_cast<std::size_t>(tile) * sizeof(T),
                              regs},
          [this, t0, tcount](gpusim::BlockContext& ctx) {
            batched_merge_body<T>(ctx, std::span<const T>(staging), std::span<T>(packed),
                                  std::span<const BatchTile>(tiles),
                                  std::span<const std::int64_t>(boundaries), t0, tcount,
                                  cfg);
          },
          {partition});
    }
  }
  BatchedPlanT(const BatchedPlanT&) = delete;
  BatchedPlanT& operator=(const BatchedPlanT&) = delete;

  /// Rebind: overwrite each run's real prefix.  The sentinel pads between
  /// runs persist from build time (kernels never write staging).
  void load(const std::vector<std::vector<T>>& as, const std::vector<std::vector<T>>& bs) {
    for (std::size_t p = 0; p < as.size(); ++p) {
      const BatchTile& first = tiles[static_cast<std::size_t>(pair_tile0[p])];
      std::copy(as[p].begin(), as[p].end(),
                staging.begin() + static_cast<std::ptrdiff_t>(first.a_base));
      std::copy(bs[p].begin(), bs[p].end(),
                staging.begin() + static_cast<std::ptrdiff_t>(first.b_base));
    }
  }

  /// Unpack the packed output (dropping sentinel tails) into `outs`.
  void unpack(std::vector<std::vector<T>>& outs) const {
    for (std::size_t p = 0; p < out_sizes.size(); ++p) {
      const std::int64_t off = tiles[static_cast<std::size_t>(pair_tile0[p])].out_base;
      outs[p].assign(packed.begin() + static_cast<std::ptrdiff_t>(off),
                     packed.begin() + static_cast<std::ptrdiff_t>(off + out_sizes[p]));
    }
  }

  [[nodiscard]] std::uint64_t footprint_bytes() const {
    return (staging.capacity() + packed.capacity()) * sizeof(T) +
           tiles.capacity() * sizeof(BatchTile) + pair_tile0.capacity() * sizeof(int) +
           (out_sizes.capacity() + boundaries.capacity()) * sizeof(std::int64_t);
  }
};

}  // namespace detail

/// The engine.  Owns the plan cache and the scratch arena; executes
/// against one Launcher (whose history/trace it manages exactly like the
/// free entry points: cleared per call, then holding that call's kernels).
class SortEngine {
 public:
  static constexpr std::size_t kDefaultPlanCapacity = 64;

  explicit SortEngine(gpusim::Launcher& launcher,
                      std::size_t plan_capacity = kDefaultPlanCapacity)
      : launcher_(&launcher), capacity_(plan_capacity) {}
  SortEngine(const SortEngine&) = delete;
  SortEngine& operator=(const SortEngine&) = delete;

  /// merge_sort through the engine: bit-identical report, cached plan.
  template <typename T>
  SortReport sort(std::vector<T>& data, const MergeConfig& cfg,
                  gpusim::GraphExec mode = gpusim::GraphExec::Overlap) {
    return execute<detail::SortPlanT<T>>(PlanKey::Kind::Sort, cfg, data, SortReport{}, mode);
  }

  /// merge_sort_multiway through the engine: the k-way pipeline under the
  /// same plan cache.  The (k, variant) pair is digested into the key.
  template <typename T>
  SortReport sort_multiway(std::vector<T>& data, const MultiwayConfig& cfg,
                           gpusim::GraphExec mode = gpusim::GraphExec::Overlap) {
    return execute<detail::MultiwayPlanT<T>>(PlanKey::Kind::Multiway, cfg, data, SortReport{},
                                             mode, launcher_->device().warp_size);
  }

  /// Standalone cf_permute / cf_transpose through the engine: one cached
  /// one-kernel plan per (op, direction, type, padded length, e, u).  The
  /// whole *padded* tile domain is permuted — a real element of a ragged
  /// final tile may land in the sentinel tail and come back only under the
  /// inverse op — so `data` is resized to the padded length and holds the
  /// full permuted array on return (truncate to report.n when done).
  template <typename T>
  cfprims::PermuteReport permute(std::vector<T>& data, const cfprims::PermuteConfig& cfg,
                                 gpusim::GraphExec mode = gpusim::GraphExec::Overlap) {
    cfprims::PermuteReport report;
    report.op = cfg.op;
    report.inverse = cfg.inverse;
    report.e = cfg.e;
    report.u = cfg.u;
    const auto kind = cfg.op == cfprims::PermuteOp::kTranspose ? PlanKey::Kind::Transpose
                                                                : PlanKey::Kind::Permute;
    return execute<detail::PermutePlanT<T>>(kind, cfg, data, std::move(report), mode);
  }

  /// merge_sort_by_key through the engine: the KeyValue pair buffer comes
  /// from the scratch arena instead of a per-call allocation.
  template <typename K, typename V>
  SortReport sort_by_key(std::vector<K>& keys, std::vector<V>& values,
                         const MergeConfig& cfg,
                         gpusim::GraphExec mode = gpusim::GraphExec::Overlap) {
    return by_key(keys, values, "merge_sort_by_key",
                  [&](std::vector<KeyValue<K, V>>& pairs) { return sort(pairs, cfg, mode); });
  }

  /// sort_multiway for key-value pairs, arena-staged like sort_by_key.
  template <typename K, typename V>
  SortReport sort_multiway_by_key(std::vector<K>& keys, std::vector<V>& values,
                                  const MultiwayConfig& cfg,
                                  gpusim::GraphExec mode = gpusim::GraphExec::Overlap) {
    return by_key(keys, values, "merge_sort_multiway_by_key",
                  [&](std::vector<KeyValue<K, V>>& pairs) {
                    return sort_multiway(pairs, cfg, mode);
                  });
  }

  /// segmented_sort through the engine: every non-empty segment acquires a
  /// plan (same-length segments across batches hit the cache) and its
  /// graph template is instantiated into one batch graph via
  /// KernelGraph::append — no kernels are re-enqueued on a hit.
  template <typename T>
  SegmentedSortReport segmented_sort(std::vector<std::vector<T>>& segments,
                                     const MergeConfig& cfg,
                                     gpusim::GraphExec mode = gpusim::GraphExec::Overlap) {
    validate_merge_config(launcher_->device(), cfg);
    const MergeConfig certified = with_certs(cfg);
    launcher_->clear_history();

    SegmentedSortReport report;
    report.segments = static_cast<int>(segments.size());
    report.per_segment.reserve(segments.size());

    std::vector<Staged<detail::SortPlanT<T>>> held;
    gpusim::KernelGraph graph;
    for (std::vector<T>& seg : segments) {
      SegmentedSortReport::Segment info;
      info.n = static_cast<std::int64_t>(seg.size());
      info.first_kernel = graph.size();
      report.elements += info.n;
      if (info.n > 0) {
        auto staged = stage<detail::SortPlanT<T>>(PlanKey::Kind::Sort, certified, seg);
        info.passes = staged.plan->passes;
        graph.append(staged.plan->graph);
        info.kernel_count = graph.size() - info.first_kernel;
        held.push_back(std::move(staged));
      }
      report.per_segment.push_back(info);
    }

    const gpusim::GraphReport g = launcher_->run(graph, mode);

    std::size_t si = 0;
    for (std::vector<T>& seg : segments) {
      if (seg.empty()) continue;
      const detail::SortPlanT<T>& plan = *held[si++].plan;
      std::copy(plan.result->begin(),
                plan.result->begin() + static_cast<std::ptrdiff_t>(seg.size()),
                seg.begin());
    }
    fill_graph_report(report, g);
    for (auto& h : held) cache_plan(h.key, std::move(h.plan));
    return report;
  }

  /// batched_merge through the engine: the plan key digests every pair's
  /// (|A|, |B|), so a repeated batch shape reuses its staging layout,
  /// descriptors, and both kernel nodes per pair.
  template <typename T>
  BatchedMergeReport batched_merge(const std::vector<std::vector<T>>& as,
                                   const std::vector<std::vector<T>>& bs,
                                   std::vector<std::vector<T>>& outs,
                                   const MergeConfig& cfg,
                                   gpusim::GraphExec mode = gpusim::GraphExec::Overlap) {
    if (as.size() != bs.size())
      throw std::invalid_argument("batched_merge: pair count mismatch");
    validate_merge_config(launcher_->device(), cfg);
    const MergeConfig certified = with_certs(cfg);
    launcher_->clear_history();

    BatchedMergeReport report;
    report.pairs = static_cast<int>(as.size());
    outs.assign(as.size(), {});
    if (as.empty()) return report;

    std::uint64_t digest = numtheory::kFnvOffset;
    for (std::size_t p = 0; p < as.size(); ++p) {
      digest = numtheory::fnv1a(digest, static_cast<std::uint64_t>(as[p].size()));
      digest = numtheory::fnv1a(digest, static_cast<std::uint64_t>(bs[p].size()));
    }
    const PlanKey key{PlanKey::Kind::Batched, type_digest<T>(),
                      static_cast<std::int64_t>(as.size()), digest,
                      config_digest(certified)};
    auto plan = acquire_plan<detail::BatchedPlanT<T>>(key, [&] {
      return std::make_shared<detail::BatchedPlanT<T>>(as, bs, certified);
    });
    plan->load(as, bs);
    report.elements = plan->elements;

    const gpusim::GraphReport g = launcher_->run(plan->graph, mode);

    plan->unpack(outs);
    fill_graph_report(report, g);
    cache_plan(key, std::move(plan));
    return report;
  }

  [[nodiscard]] gpusim::Launcher& launcher() const { return *launcher_; }
  [[nodiscard]] ScratchArena& arena() { return arena_; }

  /// Cumulative counters plus a snapshot of current cache/arena contents.
  [[nodiscard]] EngineStats stats() const;

  /// Drops every idle plan (stats counters are kept).
  void clear_plans();

  /// Disabling also drops the idle plans; every subsequent acquire is a
  /// build (counted as a miss).  `cfsort --no-plan-cache`.
  void set_plan_cache_enabled(bool enabled);
  [[nodiscard]] bool plan_cache_enabled() const { return cache_enabled_; }

  /// Maximum idle plan instances kept; least-recently-released instances
  /// beyond it are evicted.
  void set_plan_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t plan_capacity() const { return capacity_; }

  /// Attaches a persistent cross-process store (nullptr detaches).  On an
  /// in-memory plan miss the engine consults the store for the key's
  /// persisted metadata (a disk hit proves a previous process planned the
  /// same request) and writes the metadata back after building; the
  /// store's traffic counters surface as the EngineStats disk_* fields.
  /// The engine does NOT own the store — the caller keeps it alive (and
  /// calls save()) for the engine's lifetime; one store may serve several
  /// engines and the autotuner at once.
  void set_store(cache::PlanCacheStore* store) { store_ = store; }
  [[nodiscard]] cache::PlanCacheStore* store() const { return store_; }

 private:
  struct CachedPlan {
    PlanKey key;
    std::shared_ptr<void> plan;
    std::uint64_t bytes = 0;
    std::uint64_t released_at = 0;
  };

  /// An acquired plan and the key it returns to the cache under.
  template <typename Plan>
  struct Staged {
    PlanKey key;
    std::shared_ptr<Plan> plan;
  };

  /// Copies `cfg` with the conflict-freedom certificate bundle for the
  /// launcher's warp width resolved in (memoized process-wide; a few
  /// symbolic proofs on the first call per (w, E)).  PlanKey equality
  /// ignores the bundle — it is a pure function of (warp_size, e).  Configs
  /// without a bundle (permute) pass through unchanged.
  template <typename Cfg>
  [[nodiscard]] Cfg with_certs(Cfg cfg) const {
    if constexpr (requires { cfg.certs; })
      cfg.certs = resolve_tile_certs(launcher_->device().warp_size, cfg.e);
    return cfg;
  }

  /// The key/acquire/load step shared by execute and segmented_sort: pads
  /// |data| to the tile, keys the plan on (kind, T, n_padded, the config
  /// digest), takes an idle instance or builds one from (certified,
  /// n_padded, extra...), and loads `data` into it.
  template <typename Plan, typename T, typename Cfg, typename... Extra>
  Staged<Plan> stage(PlanKey::Kind kind, const Cfg& certified, const std::vector<T>& data,
                     Extra... extra) {
    const std::int64_t tile = certified.tile();
    const std::int64_t n_padded =
        (static_cast<std::int64_t>(data.size()) + tile - 1) / tile * tile;
    const PlanKey key{kind, type_digest<T>(), n_padded, 0, config_digest(certified)};
    auto plan = acquire_plan<Plan>(
        key, [&] { return std::make_shared<Plan>(certified, n_padded, extra...); });
    plan->load(data);
    return {key, std::move(plan)};
  }

  /// The one execution path of the padded single-array entry points
  /// (sort, sort_multiway, permute): clear the launcher's history →
  /// validate → certify → stage → run → copy out → report → release the
  /// plan.  Empty input stops after the history clear and touches no plan.
  template <typename Plan, typename T, typename Cfg, typename Report, typename... Extra>
  Report execute(PlanKey::Kind kind, const Cfg& cfg, std::vector<T>& data, Report report,
                 gpusim::GraphExec mode, Extra... extra) {
    launcher_->clear_history();
    if constexpr (std::is_same_v<Cfg, MultiwayConfig>) {
      validate_multiway_config(launcher_->device(), cfg);
      detail::require_multiway_fits<T>(launcher_->device(), cfg);
    } else if constexpr (std::is_same_v<Cfg, MergeConfig>) {
      validate_merge_config(launcher_->device(), cfg);
    } else {
      cfprims::validate_permute_config(launcher_->device(), cfg);
    }
    const Cfg certified = with_certs(cfg);

    report.n = static_cast<std::int64_t>(data.size());
    if (report.n == 0) return report;

    auto staged = stage<Plan>(kind, certified, data, extra...);
    const Plan& plan = *staged.plan;
    report.n_padded = plan.n_padded;
    if constexpr (requires { report.passes; }) report.passes = plan.passes;

    const gpusim::GraphReport g = launcher_->run(plan.graph, mode);

    const std::int64_t keep = Plan::kReturnsPadded ? plan.n_padded : report.n;
    data.assign(plan.result->begin(), plan.result->begin() + keep);
    fill_graph_report(report, g);
    cache_plan(staged.key, std::move(staged.plan));
    return report;
  }

  /// The graph-run fields every engine report carries, from the run's
  /// GraphReport and the launcher's (freshly cleared) history.
  template <typename Report>
  void fill_graph_report(Report& report, const gpusim::GraphReport& g) const {
    report.kernels = g.kernels;
    if constexpr (requires { report.serial_microseconds; }) {
      report.serial_microseconds = g.serial_microseconds;
    } else {
      report.microseconds = g.serial_microseconds;
    }
    report.makespan_microseconds = g.makespan_microseconds;
    report.graph_levels = g.levels;
    report.totals = launcher_->total_counters();
    report.phases = launcher_->phase_counters();
  }

  /// The key-value adapter: zips (keys, values) into an arena-leased
  /// KeyValue buffer, sorts it with `sort_pairs`, and unzips the result.
  template <typename K, typename V, typename SortPairs>
  SortReport by_key(std::vector<K>& keys, std::vector<V>& values, const char* entry,
                    SortPairs&& sort_pairs) {
    if (keys.size() != values.size())
      throw std::invalid_argument(std::string(entry) + ": keys/values size mismatch");
    auto lease = arena_.acquire<KeyValue<K, V>>(keys.size());
    std::vector<KeyValue<K, V>>& pairs = *lease;
    for (std::size_t i = 0; i < keys.size(); ++i) pairs[i] = {keys[i], values[i]};
    const SortReport report = sort_pairs(pairs);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = pairs[i].key;
      values[i] = pairs[i].value;
    }
    return report;
  }

  template <typename Plan, typename Build>
  std::shared_ptr<Plan> acquire_plan(const PlanKey& key, Build&& build) {
    if (cache_enabled_) {
      for (std::size_t i = 0; i < free_plans_.size(); ++i) {
        if (free_plans_[i].key == key) {
          auto plan = std::static_pointer_cast<Plan>(std::move(free_plans_[i].plan));
          free_plans_.erase(free_plans_.begin() + static_cast<std::ptrdiff_t>(i));
          ++stats_.plan_hits;
          return plan;
        }
      }
    }
    ++stats_.plan_misses;

    // Warm-start: an attached store answers "has any process planned this
    // exact request on this exact device before?".  The kernel graph itself
    // cannot live on disk (its bodies capture live buffers), so a disk hit
    // warms the metadata and the counters, not the build; the expensive
    // persisted payload is the autotuner's (analysis/autotune.cpp), which
    // shares this store.
    bool persisted = false;
    std::vector<std::byte> skey;
    if (store_ != nullptr) {
      skey = detail::plan_store_key(launcher_->device().digest(), key);
      persisted = store_->lookup(skey).has_value();
    }
    auto plan = build();
    if (store_ != nullptr && !persisted) {
      cache::ByteWriter meta;
      meta.u8(1);  // metadata record version
      if constexpr (requires { plan->passes; }) {
        meta.i64(plan->passes);
      } else {
        meta.i64(0);
      }
      meta.i64(key.n_padded);
      store_->insert(skey, meta.data());
    }
    return plan;
  }

  template <typename Plan>
  void cache_plan(const PlanKey& key, std::shared_ptr<Plan> plan) {
    const std::uint64_t bytes = plan->footprint_bytes();
    release_plan(key, std::move(plan), bytes);
  }

  void release_plan(const PlanKey& key, std::shared_ptr<void> plan,
                    std::uint64_t bytes);
  void evict_to_capacity(std::size_t capacity);

  gpusim::Launcher* launcher_;
  ScratchArena arena_;
  cache::PlanCacheStore* store_ = nullptr;  ///< optional, caller-owned
  std::vector<CachedPlan> free_plans_;  ///< idle instances, linear-scanned
  bool cache_enabled_ = true;
  std::size_t capacity_;
  std::uint64_t clock_ = 0;
  EngineStats stats_;  ///< cumulative fields only; snapshots added in stats()
};

// ---------------------------------------------------------------------------
// The classic free entry points: one-shot engine use.  A fresh engine per
// call means plan build + execute, which is exactly the pre-engine cost and
// produces bit-identical reports; callers with repeated shapes should hold
// a SortEngine instead.

/// Sorts `data` in place with the configured variant.  `launcher.history()`
/// is cleared and then holds one report per launched kernel.
template <typename T>
SortReport merge_sort(gpusim::Launcher& launcher, std::vector<T>& data,
                      const MergeConfig& cfg) {
  SortEngine engine(launcher);
  return engine.sort(data, cfg);
}

/// Sorts `keys` and applies the same permutation to `values` (Thrust's
/// sort_by_key).  Sizes must match.  See key_value.hpp for the stability
/// guarantees per variant.
template <typename K, typename V>
SortReport merge_sort_by_key(gpusim::Launcher& launcher, std::vector<K>& keys,
                             std::vector<V>& values, const MergeConfig& cfg) {
  SortEngine engine(launcher);
  return engine.sort_by_key(keys, values, cfg);
}

/// Sorts `data` in place with the k-way multiway pipeline: ceil(log_k)
/// global passes instead of ceil(log2).  See multiway_pass.hpp for the two
/// merge variants.  Results are bit-identical to merge_sort for plain keys.
template <typename T>
SortReport merge_sort_multiway(gpusim::Launcher& launcher, std::vector<T>& data,
                               const MultiwayConfig& cfg) {
  SortEngine engine(launcher);
  return engine.sort_multiway(data, cfg);
}

/// merge_sort_multiway for key-value pairs (sorted by key).
template <typename K, typename V>
SortReport merge_sort_multiway_by_key(gpusim::Launcher& launcher, std::vector<K>& keys,
                                      std::vector<V>& values, const MultiwayConfig& cfg) {
  SortEngine engine(launcher);
  return engine.sort_multiway_by_key(keys, values, cfg);
}

/// Sorts every segment in place, all submitted as one kernel graph.
/// Zero-length segments are legal and contribute no kernels.
/// `launcher.history()` is cleared and then holds every kernel in enqueue
/// order (segment by segment).  `mode` selects the host execution policy
/// only — reports are bit-identical for both modes and any worker count.
template <typename T>
SegmentedSortReport segmented_sort(gpusim::Launcher& launcher,
                                   std::vector<std::vector<T>>& segments,
                                   const MergeConfig& cfg,
                                   gpusim::GraphExec mode = gpusim::GraphExec::Overlap) {
  SortEngine engine(launcher);
  return engine.segmented_sort(segments, cfg, mode);
}

/// Merges as[i] with bs[i] into outs[i] for every i, in one partition
/// launch + one merge launch.  Lists may have arbitrary (including zero and
/// mutually different) lengths.
template <typename T>
BatchedMergeReport batched_merge(gpusim::Launcher& launcher,
                                 const std::vector<std::vector<T>>& as,
                                 const std::vector<std::vector<T>>& bs,
                                 std::vector<std::vector<T>>& outs,
                                 const MergeConfig& cfg) {
  SortEngine engine(launcher);
  return engine.batched_merge(as, bs, outs, cfg);
}

}  // namespace cfmerge::sort
