// Tests of the Pass 2 shared-memory shadow checker: clean runs on the real
// kernels, and each violation class triggered by a crafted kernel or (for
// the classes the simulated kernels cannot reach without corrupting memory)
// by driving the auditor interface directly.
#include "verify/shadow.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <vector>

#include "cfprims/primitive.hpp"
#include "gpusim/launcher.hpp"
#include "gpusim/memory_views.hpp"
#include "gpusim/shared_memory.hpp"
#include "sort/merge_sort.hpp"
#include "verify/safety.hpp"

using namespace cfmerge;
using namespace cfmerge::verify;

namespace cfmerge::verify {

// gtest failure output for summary comparisons.
void PrintTo(const ShadowSummary& s, std::ostream* os) {
  *os << "{accesses=" << s.shared_accesses << " words=" << s.checked_words
      << " skipped=" << s.skipped_accesses << " dropped=" << s.dropped_violations
      << " violations:";
  for (const ShadowViolation& v : s.violations)
    *os << " [" << v.kind << " block=" << v.block << " warp=" << v.warp << " addr=" << v.addr
        << "]";
  *os << "}";
}

}  // namespace cfmerge::verify

namespace {

/// Counts violations of one kind in a summary.
std::size_t count_kind(const ShadowSummary& s, const std::string& kind) {
  return static_cast<std::size_t>(
      std::count_if(s.violations.begin(), s.violations.end(),
                    [&](const ShadowViolation& v) { return v.kind == kind; }));
}

/// A kernel whose blocks raise every violation kind, in a block-dependent
/// mix (every third block is clean), so both the capped violation list and
/// the drop count depend on the order blocks are audited in.
gpusim::KernelBody violating_kernel(int salt) {
  return [salt](gpusim::BlockContext& ctx) {
    const int b = ctx.block_id();
    const int mix = (b + salt) % 3;
    gpusim::MemoryAuditor* au = ctx.audit();
    gpusim::SharedTile<int> tile(ctx, 8);
    std::vector<std::int64_t> lo{0, 1, 2, 3};
    std::vector<int> vals{1, 2, 3, 4};
    tile.scatter(0, lo, vals);
    if (mix == 0) return;
    // uninitialized-read: words 4.. were never written.
    std::vector<std::int64_t> unwritten{4, 5, gpusim::kInactiveLane, 4 + b % 4};
    tile.gather(0, unwritten, vals);
    // write-write-race: another warp rewrites words 0..3 in the same epoch.
    tile.scatter(1, lo, vals);
    if (mix == 2) {
      // write-write-race: two lanes of one scatter on one word.
      ctx.barrier();
      std::vector<std::int64_t> dup{6, 6, 7, gpusim::kInactiveLane};
      tile.scatter(2, dup, vals);
    }
    // out-of-bounds (shared and global) and conflict-mismatch go through the
    // hooks directly: the data-moving views assert in-bounds addresses.
    const std::vector<std::int64_t> oob{1, 8 + b, 2, 3};
    au->on_shared_access(b, 0, 3, "probe", oob, /*is_write=*/false, ctx.lanes(),
                         /*charged_conflicts=*/b % 2);
    const std::vector<std::int64_t> gidx{0, 16 + b};
    au->on_global_access(b, 3, "probe", gidx, 16, /*is_write=*/true);
  };
}

}  // namespace

TEST(Shadow, CleanOnRealMergeSort) {
  ShadowChecker checker;
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  launcher.set_audit(&checker);
  sort::MergeConfig cfg;
  cfg.e = 3;
  cfg.u = 16;
  std::vector<int> data(static_cast<std::size_t>(4 * cfg.tile()));
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<int>((i * 131) % 257);
  auto expect = data;
  std::sort(expect.begin(), expect.end());
  sort::merge_sort(launcher, data, cfg);
  EXPECT_EQ(data, expect);

  const ShadowSummary s = checker.summary();
  EXPECT_TRUE(s.enabled);
  EXPECT_GT(s.shared_accesses, 0u);
  EXPECT_GT(s.checked_words, 0u);
  EXPECT_TRUE(s.clean()) << (s.violations.empty() ? "" : s.violations.front().detail);
}

TEST(Shadow, UninitializedReadFlagged) {
  ShadowChecker checker;
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(4));
  launcher.set_audit(&checker);
  launcher.launch("uninit_read", gpusim::LaunchShape{1, 4, 0, 8},
                  [&](gpusim::BlockContext& ctx) {
                    gpusim::SharedTile<int> tile(ctx, 16);
                    std::vector<std::int64_t> addrs{0, 1, 2, 3};
                    std::vector<int> vals{10, 11, 12, 13};
                    tile.scatter(0, addrs, vals);
                    // Words 4..7 were never written by anyone.
                    std::vector<std::int64_t> bad{4, 5, 6, 7};
                    tile.gather(0, bad, vals);
                  });
  const ShadowSummary s = checker.summary();
  EXPECT_EQ(count_kind(s, "uninitialized-read"), 4u);
  EXPECT_FALSE(s.clean());
}

TEST(Shadow, RawEscapeMarksTileInitialized) {
  ShadowChecker checker;
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(4));
  launcher.set_audit(&checker);
  launcher.launch("raw_then_read", gpusim::LaunchShape{1, 4, 0, 8},
                  [&](gpusim::BlockContext& ctx) {
                    gpusim::SharedTile<int> tile(ctx, 16);
                    for (auto& x : tile.raw()) x = 1;
                    std::vector<std::int64_t> addrs{4, 5, 6, 7};
                    std::vector<int> vals(4);
                    tile.gather(0, addrs, vals);
                  });
  EXPECT_TRUE(checker.summary().clean());
}

TEST(Shadow, IntraScatterDuplicateIsARace) {
  ShadowChecker checker;
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(4));
  launcher.set_audit(&checker);
  launcher.launch("dup_scatter", gpusim::LaunchShape{1, 4, 0, 8},
                  [&](gpusim::BlockContext& ctx) {
                    gpusim::SharedTile<int> tile(ctx, 8);
                    std::vector<std::int64_t> addrs{2, 2, 5, 6};  // lanes 0,1 collide
                    std::vector<int> vals{1, 2, 3, 4};
                    tile.scatter(0, addrs, vals);
                  });
  const ShadowSummary s = checker.summary();
  EXPECT_EQ(count_kind(s, "write-write-race"), 1u);
}

TEST(Shadow, CrossWarpSameEpochWriteIsARaceBarrierClearsIt) {
  for (const bool with_barrier : {false, true}) {
    ShadowChecker checker;
    gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(4));
    launcher.set_audit(&checker);
    launcher.launch("cross_warp", gpusim::LaunchShape{1, 8, 0, 8},
                    [&](gpusim::BlockContext& ctx) {
                      gpusim::SharedTile<int> tile(ctx, 8);
                      std::vector<std::int64_t> addrs{0, 1, 2, 3};
                      std::vector<int> vals{1, 2, 3, 4};
                      tile.scatter(0, addrs, vals);
                      if (with_barrier) ctx.barrier();
                      tile.scatter(1, addrs, vals);  // warp 1, same words
                    });
    const ShadowSummary s = checker.summary();
    if (with_barrier)
      EXPECT_TRUE(s.clean());
    else
      EXPECT_EQ(count_kind(s, "write-write-race"), 4u);
  }
}

TEST(Shadow, OutOfBoundsAndConflictMismatchAtAuditorLevel) {
  // The SharedTile data movement asserts in-bounds, so these two classes are
  // exercised through the auditor interface the hooks feed.
  ShadowChecker checker;
  checker.on_shared_alloc(0, 0, 8);

  // (charged_conflicts matches the naive recount — banks of 1, 9, -3 alias —
  // so only the bounds violations are flagged here.)
  const std::vector<std::int64_t> oob{1, 9, -3, 2};
  checker.on_shared_access(0, 0, 0, "unit", oob, /*is_write=*/true, 4,
                           /*charged_conflicts=*/2);
  EXPECT_EQ(count_kind(checker.summary(), "out-of-bounds"), 2u);

  // Addresses 1 and 5 share bank 1 of 4: the true replay cost is 1 conflict;
  // charging anything else must be flagged.
  const std::vector<std::int64_t> conflicted{1, 5, 2, 3};
  checker.on_shared_access(0, 0, 0, "unit", conflicted, /*is_write=*/false, 4,
                           /*charged_conflicts=*/0);
  EXPECT_EQ(count_kind(checker.summary(), "conflict-mismatch"), 1u);
  checker.on_shared_access(0, 0, 1, "unit", conflicted, /*is_write=*/false, 4,
                           /*charged_conflicts=*/1);
  EXPECT_EQ(count_kind(checker.summary(), "conflict-mismatch"), 1u);  // unchanged
}

TEST(Shadow, ViolationCapCountsDrops) {
  ShadowChecker checker(/*max_violations=*/2);
  checker.on_shared_alloc(0, 0, 4);
  const std::vector<std::int64_t> bad{10, 11, 12};
  checker.on_shared_access(0, 0, 0, "unit", bad, /*is_write=*/true, 4, 0);
  const ShadowSummary s = checker.summary();
  EXPECT_EQ(s.violations.size(), 2u);
  EXPECT_EQ(s.dropped_violations, 1u);
  EXPECT_FALSE(s.clean());
}

TEST(Shadow, ResetKeepsEnabledDropsState) {
  ShadowChecker checker;
  checker.on_shared_alloc(0, 0, 4);
  const std::vector<std::int64_t> bad{10};
  checker.on_shared_access(0, 0, 0, "unit", bad, /*is_write=*/true, 4, 0);
  EXPECT_FALSE(checker.summary().clean());
  checker.reset();
  const ShadowSummary s = checker.summary();
  EXPECT_TRUE(s.enabled);
  EXPECT_TRUE(s.clean());
  EXPECT_EQ(s.shared_accesses, 0u);
}

TEST(Shadow, NegativeGlobalViewIndexFlagged) {
  // The GlobalView data movement asserts in-bounds, so the negative-index
  // class is exercised through the auditor interface the hook feeds.  (-1
  // is reserved for kInactiveLane, so the smallest representable negative
  // index is -2.)
  ShadowChecker checker;
  const std::vector<std::int64_t> idxs{-2, 0, 1, gpusim::kInactiveLane};
  checker.on_global_access(0, 0, "unit", idxs, /*view_size=*/8, /*is_write=*/false);
  const ShadowSummary s = checker.summary();
  EXPECT_EQ(count_kind(s, "out-of-bounds"), 1u);
  EXPECT_EQ(s.violations.front().addr, -2);
}

TEST(Shadow, ReadOfWordInitializedOnlyViaRawEscape) {
  // A word whose only initialization is the raw() escape hatch: reads are
  // clean, and a later charged write must not race against the escape
  // marker (writer -2 is not a real warp).
  ShadowChecker checker;
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(4));
  launcher.set_audit(&checker);
  launcher.launch("raw_escape_word", gpusim::LaunchShape{1, 8, 0, 8},
                  [&](gpusim::BlockContext& ctx) {
                    gpusim::SharedTile<int> tile(ctx, 8);
                    tile.raw()[3] = 42;  // escape-hatch init, no charged write
                    std::vector<std::int64_t> addrs{3};
                    std::vector<int> vals(1);
                    tile.gather(0, addrs, vals);   // read: initialized via raw
                    tile.scatter(1, addrs, vals);  // write: no race with -2
                  });
  EXPECT_TRUE(checker.summary().clean());
}

TEST(Shadow, CrossWarpSameEpochWriteInactiveLaneIsNoRace) {
  // Warp 1's scatter would collide with warp 0 on word 2 — but only through
  // a lane that is inactive, and inactive lanes write nothing.
  for (const bool active : {false, true}) {
    ShadowChecker checker;
    gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(4));
    launcher.set_audit(&checker);
    launcher.launch("inactive_collision", gpusim::LaunchShape{1, 8, 0, 8},
                    [&](gpusim::BlockContext& ctx) {
                      gpusim::SharedTile<int> tile(ctx, 8);
                      std::vector<std::int64_t> a0{0, 1, 2, 3};
                      std::vector<int> vals{1, 2, 3, 4};
                      tile.scatter(0, a0, vals);
                      std::vector<std::int64_t> a1{
                          active ? 2 : gpusim::kInactiveLane, 4, 5, 6};
                      tile.scatter(1, a1, vals);  // same epoch, other warp
                    });
    const ShadowSummary s = checker.summary();
    if (active)
      EXPECT_EQ(count_kind(s, "write-write-race"), 1u);
    else
      EXPECT_TRUE(s.clean()) << s.violations.front().detail;
  }
}

TEST(Shadow, CertifiedSkipMarksRangeWrittenAndCounts) {
  ShadowChecker checker;
  checker.on_shared_alloc(0, 0, 16);

  // A certified bulk write covering [0, 8): trusted wholesale.
  checker.on_certified_skip(0, 0, 0, 8, /*accesses=*/4, /*lanes=*/4,
                            /*is_write=*/true);
  EXPECT_EQ(checker.summary().skipped_accesses, 4u);

  // Reads inside the certified range are initialized...
  const std::vector<std::int64_t> in{0, 1, 2, 3};
  checker.on_shared_access(0, 0, 0, "unit", in, /*is_write=*/false, 4, 0);
  EXPECT_EQ(count_kind(checker.summary(), "uninitialized-read"), 0u);
  // ...and a later per-lane write does not race the certificate marker.
  const std::vector<std::int64_t> one{2};
  checker.on_shared_access(0, 0, 5, "unit", one, /*is_write=*/true, 4, 0);
  EXPECT_EQ(count_kind(checker.summary(), "write-write-race"), 0u);
  // Words beyond the certified range stay uninitialized.
  const std::vector<std::int64_t> out{12, 13};
  checker.on_shared_access(0, 0, 0, "unit", out, /*is_write=*/false, 4, 0);
  EXPECT_EQ(count_kind(checker.summary(), "uninitialized-read"), 2u);

  // A certified read skip only counts; it marks nothing.
  checker.on_certified_skip(0, 0, 0, 16, /*accesses=*/7, /*lanes=*/4,
                            /*is_write=*/false);
  EXPECT_EQ(checker.summary().skipped_accesses, 11u);
}

TEST(Shadow, StaticSafetyWitnessesReplayDynamically) {
  // The two safety-broken ablations: the Pass 3 static analyzer refutes each
  // with a concrete lane/epoch witness, and replaying the ablation's actual
  // address streams (PrimitiveLowering::concrete — the same arithmetic the
  // executors would run) through the dynamic shadow checker rediscovers the
  // same violation kind at the same word.
  struct Case {
    const char* name;
    const char* kind;
  };
  for (const Case c : {Case{"cf_rank_scatter_off_by_we", "out-of-bounds"},
                       Case{"cf_permute_read_before_scatter", "uninitialized-read"}}) {
    SCOPED_TRACE(c.name);
    const ProofObject po = verify_primitive_safety(c.name, 8, 4);
    ASSERT_EQ(po.verdict, Verdict::kCounterexample);
    ASSERT_EQ(po.counterexample.kind, c.kind);
    const Counterexample& cx = po.counterexample;

    const cfprims::CFPrimitive* prim = cfprims::find_primitive(c.name);
    ASSERT_NE(prim, nullptr);
    const cfprims::PrimitiveLowering lo =
        prim->lower(cfprims::PrimShape{cx.w, cx.e, cx.u, 0});

    // A deliberately high violation cap: the replay passes charged_conflicts
    // = 0, so conflict-mismatch noise must not crowd out the safety witness.
    ShadowChecker checker(/*max_violations=*/1u << 20);
    if (lo.tiles.empty()) {
      checker.on_shared_alloc(0, 0, static_cast<std::size_t>(lo.shape.tile()));
      checker.on_shared_raw(0, 0);
    } else {
      for (std::size_t t = 0; t < lo.tiles.size(); ++t) {
        checker.on_shared_alloc(0, static_cast<std::uint64_t>(t),
                                static_cast<std::size_t>(lo.tiles[t].words));
        if (lo.tiles[t].extern_init)
          checker.on_shared_raw(0, static_cast<std::uint64_t>(t));
      }
    }

    // Replay epoch by epoch, warp-wide chunk by chunk, with a barrier
    // between epochs — exactly the structure the static pass reasoned over.
    std::vector<int> epochs;
    for (const cfprims::AccessStream& st : lo.streams) epochs.push_back(st.epoch);
    std::sort(epochs.begin(), epochs.end());
    epochs.erase(std::unique(epochs.begin(), epochs.end()), epochs.end());
    for (std::size_t t = 0; t < epochs.size(); ++t) {
      if (t > 0) checker.on_barrier(0);
      // Streams in the same epoch have no barrier between them, so the
      // static pass quantifies over ALL intra-epoch interleavings.  The
      // adversarial schedule its witness names runs the un-barriered read
      // before the write it races with — replay reads first to realize it.
      for (const bool writes : {false, true})
      for (const cfprims::AccessStream& st : lo.streams) {
        if (st.epoch != epochs[t] || st.is_write != writes) continue;
        const int rounds = st.rounds_are_instances ? 1 : st.rounds;
        for (int j = 0; j < rounds; ++j) {
          for (std::int64_t base = 0; base < st.domain; base += cx.w) {
            std::vector<std::int64_t> addrs;
            for (std::int64_t i = base; i < std::min<std::int64_t>(base + cx.w, st.domain); ++i)
              addrs.push_back(st.concrete(i, j));
            // charged_conflicts is irrelevant here: the replay looks only at
            // the safety classes, not the conflict cross-check.
            checker.on_shared_access(0, static_cast<std::uint64_t>(st.tile),
                                     static_cast<int>(base / cx.w), st.name, addrs,
                                     st.is_write, cx.w, 0);
          }
        }
      }
    }

    const ShadowSummary sum = checker.summary();
    const std::size_t hits = count_kind(sum, c.kind);
    EXPECT_GT(hits, 0u) << "dynamic replay missed the statically-proved violation";
    // The statically-named witness word is among the dynamically flagged ones.
    bool witness_word_seen = false;
    for (const ShadowViolation& v : sum.violations)
      if (v.kind == c.kind && v.addr == cx.addr1) witness_word_seen = true;
    EXPECT_TRUE(witness_word_seen)
        << "static witness word " << cx.addr1 << " not flagged dynamically";
  }
}

TEST(Shadow, SummaryIsIndependentOfThreadsAndGraphMode) {
  // Three kernels, two independent and one dependent, so Overlap mode mixes
  // blocks of different kernels on the pool.  A small cap keeps only the
  // first violations: they must be the ones a one-thread run keeps.
  gpusim::KernelGraph graph;
  const gpusim::NodeId a =
      graph.add("viol_a", gpusim::LaunchShape{61, 16, 0, 8}, violating_kernel(0));
  graph.add("viol_b", gpusim::LaunchShape{47, 16, 0, 8}, violating_kernel(1));
  graph.add("viol_c", gpusim::LaunchShape{53, 16, 0, 8}, violating_kernel(2), {a});

  for (const std::size_t cap : {std::size_t{3}, std::size_t{1} << 20}) {
    SCOPED_TRACE(cap);
    auto audit = [&](int threads, gpusim::GraphExec mode) {
      ShadowChecker checker(cap);
      gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(4));
      launcher.set_threads(threads);
      launcher.set_audit(&checker);
      launcher.run(graph, mode);
      return checker.summary();
    };
    const ShadowSummary ref = audit(1, gpusim::GraphExec::Serial);
    if (cap == 3) {
      EXPECT_EQ(ref.violations.size(), 3u);
      EXPECT_GT(ref.dropped_violations, 0u);
    } else {
      for (const char* kind : {"uninitialized-read", "write-write-race", "out-of-bounds",
                               "conflict-mismatch"})
        EXPECT_GT(count_kind(ref, kind), 0u) << kind;
      // Uncapped, the list is in (kernel, block) order.
      EXPECT_EQ(ref.dropped_violations, 0u);
      EXPECT_EQ(ref.violations.front().block, 1);
    }
    for (const int threads : {1, 2, 4, 7})
      for (const gpusim::GraphExec mode :
           {gpusim::GraphExec::Serial, gpusim::GraphExec::Overlap}) {
        SCOPED_TRACE(threads);
        EXPECT_EQ(audit(threads, mode), ref);
      }
  }
}

TEST(Shadow, CleanMergeSortSummaryIsIndependentOfThreads) {
  sort::MergeConfig cfg;
  cfg.e = 3;
  cfg.u = 16;
  cfg.variant = sort::Variant::CFMerge;
  std::vector<int> input(static_cast<std::size_t>(7 * cfg.tile() + 5));
  for (std::size_t i = 0; i < input.size(); ++i)
    input[i] = static_cast<int>((i * 2654435761u) % 1009);
  for (const bool skip : {false, true}) {
    SCOPED_TRACE(skip ? "certified-skip" : "full");
    ShadowSummary ref;
    for (const int threads : {1, 2, 4, 7}) {
      ShadowChecker checker;
      gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
      launcher.set_threads(threads);
      launcher.set_audit(&checker);
      launcher.set_audit_skip(skip);
      std::vector<int> data = input;
      sort::merge_sort(launcher, data, cfg);
      ASSERT_TRUE(std::is_sorted(data.begin(), data.end()));
      const ShadowSummary s = checker.summary();
      EXPECT_TRUE(s.clean()) << (s.violations.empty() ? "" : s.violations.front().detail);
      EXPECT_GT(s.shared_accesses, 0u);
      EXPECT_EQ(s.skipped_accesses > 0, skip);
      if (threads == 1) {
        ref = s;
      } else {
        EXPECT_EQ(s, ref);
      }
    }
  }
}

TEST(Shadow, ThrowingKernelCommitsNoAuditState) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    ShadowChecker checker;
    gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(4));
    launcher.set_threads(threads);
    launcher.set_audit(&checker);
    // Prior state the failed launch must leave exactly as it is.
    launcher.launch("prior", gpusim::LaunchShape{2, 16, 0, 8}, violating_kernel(1));
    const ShadowSummary before = checker.summary();
    ASSERT_FALSE(before.clean());

    EXPECT_THROW(
        launcher.launch("throws", gpusim::LaunchShape{8, 16, 0, 8},
                        [](gpusim::BlockContext& ctx) {
                          gpusim::SharedTile<int> tile(ctx, 8);
                          std::vector<std::int64_t> addrs{0, 1, 2, 3};
                          std::vector<int> vals(4);
                          tile.gather(0, addrs, vals);  // uninitialized-read
                          if (ctx.block_id() == 5) throw std::runtime_error("block 5");
                        }),
        std::runtime_error);
    EXPECT_EQ(checker.summary(), before);
  }
}

TEST(Shadow, RecountMatchesSharedAccessCostOracle) {
  // The naive recount is the independent oracle of shared_access_cost: an
  // access charged with the hot path's count raises nothing, and one charged
  // off by one either way raises exactly one conflict-mismatch.
  std::mt19937_64 rng(0x5eed);
  ShadowChecker checker(/*max_violations=*/1u << 20);
  std::size_t expected = 0;
  auto check = [&](const std::vector<std::int64_t>& addrs, int banks) {
    const int charged = gpusim::shared_access_cost(addrs, banks).conflicts;
    for (const int delta : {0, 1, -1}) {
      checker.on_shared_access(0, 0, 0, "oracle", addrs, /*is_write=*/false, banks,
                               charged + delta);
      if (delta != 0) ++expected;
      ASSERT_EQ(count_kind(checker.summary(), "conflict-mismatch"), expected)
          << "banks=" << banks << " lanes=" << addrs.size() << " delta=" << delta;
    }
  };
  for (const int banks : {4, 8, 16, 24, 32, 64}) {
    for (int rep = 0; rep < 40; ++rep) {
      const int width = rep == 0 ? gpusim::kMaxLanes
                                 : 1 + static_cast<int>(rng() % gpusim::kMaxLanes);
      std::vector<std::int64_t> random(static_cast<std::size_t>(width));
      std::vector<std::int64_t> broadcast(random.size());
      std::vector<std::int64_t> same_bank(random.size());
      const auto bank = static_cast<std::int64_t>(rng() % static_cast<unsigned>(banks));
      const auto word = static_cast<std::int64_t>(rng() % 4096);
      for (std::size_t l = 0; l < random.size(); ++l) {
        const bool idle = rng() % 4 == 0;
        random[l] = idle ? gpusim::kInactiveLane
                         : static_cast<std::int64_t>(rng() % (4 * static_cast<unsigned>(banks)));
        broadcast[l] = idle ? gpusim::kInactiveLane : word;
        // Distinct rows of one bank, with a repeated row now and then.
        same_bank[l] = idle ? gpusim::kInactiveLane
                            : bank + banks * static_cast<std::int64_t>(l - l % (1 + rep % 3));
      }
      check(random, banks);
      check(broadcast, banks);
      check(same_bank, banks);
    }
  }
  EXPECT_EQ(checker.summary().dropped_violations, 0u);

  // A span wider than the recount's fixed buffers is rejected, not overrun.
  const std::vector<std::int64_t> wide(gpusim::kMaxLanes + 1, 0);
  EXPECT_THROW(checker.on_shared_access(0, 0, 0, "oracle", wide, false, 32, 0),
               std::invalid_argument);
  const std::vector<std::int64_t> one{0};
  EXPECT_THROW(checker.on_shared_access(0, 0, 0, "oracle", one, false,
                                        gpusim::kMaxLanes + 1, 0),
               std::invalid_argument);
}

TEST(Shadow, DirectHooksForASecondBlockAreRejected) {
  // A checker's shadow state is one block's; other blocks need a shard.
  ShadowChecker checker;
  checker.on_shared_alloc(3, 0, 8);
  checker.on_barrier(3);
  EXPECT_THROW(checker.on_barrier(4), std::logic_error);
  EXPECT_THROW(checker.on_shared_alloc(4, 0, 8), std::logic_error);
  checker.reset();
  EXPECT_NO_THROW(checker.on_shared_alloc(4, 0, 8));
}
