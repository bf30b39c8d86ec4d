// Tests of the kernel launcher: grid execution, aggregation, history, and
// the parallel block executor's determinism contract (bit-identical reports
// for every worker-thread count).
#include "gpusim/launcher.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "gpusim/memory_views.hpp"

using namespace cfmerge::gpusim;

TEST(Launcher, RunsEveryBlockOnce) {
  Launcher launcher(DeviceSpec::tiny(8));
  std::vector<int> visits(10, 0);
  const LaunchShape shape{10, 8, 0, 8};
  launcher.launch("visit", shape, [&](BlockContext& ctx) {
    ++visits[static_cast<std::size_t>(ctx.block_id())];
    EXPECT_EQ(ctx.num_blocks(), 10);
  });
  for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(Launcher, AggregatesCountersAcrossBlocks) {
  Launcher launcher(DeviceSpec::tiny(8));
  const LaunchShape shape{4, 8, 0, 8};
  const auto report = launcher.launch("work", shape, [&](BlockContext& ctx) {
    ctx.charge_compute(0, 10);
    std::vector<std::int64_t> addrs{0, 1, 2, 3, 4, 5, 6, 7};
    ctx.charge_shared(0, addrs);
  });
  EXPECT_EQ(report.total().warp_instructions, 40u);
  EXPECT_EQ(report.total().shared_accesses, 4u);
  EXPECT_EQ(report.name, "work");
}

TEST(Launcher, MeanAndMaxBlockChain) {
  Launcher launcher(DeviceSpec::tiny(8));
  const LaunchShape shape{2, 8, 0, 8};
  const auto report = launcher.launch("chains", shape, [&](BlockContext& ctx) {
    ctx.charge_compute(0, ctx.block_id() == 0 ? 100 : 300);
  });
  EXPECT_DOUBLE_EQ(report.mean_block_chain, 200.0);
  EXPECT_DOUBLE_EQ(report.max_block_chain, 300.0);
}

TEST(Launcher, SharedBytesDiscoveredFromKernel) {
  Launcher launcher(DeviceSpec::tiny(8));
  const LaunchShape shape{1, 8, 0, 8};
  const auto report = launcher.launch("alloc", shape, [&](BlockContext& ctx) {
    SharedTile<int> tile(ctx, 256);
    (void)tile;
  });
  EXPECT_EQ(report.shape.shared_bytes_per_block, 256 * sizeof(int));
  EXPECT_GT(report.timing.occupancy.blocks_per_sm, 0);
}

TEST(Launcher, HistoryAccumulatesAndClears) {
  Launcher launcher(DeviceSpec::tiny(8));
  const LaunchShape shape{1, 8, 0, 8};
  launcher.launch("a", shape, [](BlockContext& ctx) { ctx.charge_compute(0, 5); });
  launcher.launch("b", shape, [](BlockContext& ctx) { ctx.charge_compute(0, 7); });
  EXPECT_EQ(launcher.history().size(), 2u);
  EXPECT_EQ(launcher.total_counters().warp_instructions, 12u);
  EXPECT_GT(launcher.total_microseconds(), 0.0);
  launcher.clear_history();
  EXPECT_TRUE(launcher.history().empty());
}

TEST(Launcher, PhaseCountersMergedAcrossKernels) {
  Launcher launcher(DeviceSpec::tiny(8));
  const LaunchShape shape{2, 8, 0, 8};
  launcher.launch("k1", shape, [](BlockContext& ctx) {
    ctx.phase("load");
    ctx.charge_compute(0, 1);
  });
  launcher.launch("k2", shape, [](BlockContext& ctx) {
    ctx.phase("load");
    ctx.charge_compute(0, 2);
    ctx.phase("merge");
    ctx.charge_compute(0, 3);
  });
  const PhaseCounters merged = launcher.phase_counters();
  std::uint64_t load = 0, merge = 0;
  for (const auto& [name, c] : merged.phases()) {
    if (name == "load") load = c.warp_instructions;
    if (name == "merge") merge = c.warp_instructions;
  }
  EXPECT_EQ(load, 6u);   // 1*2 blocks + 2*2 blocks
  EXPECT_EQ(merge, 6u);  // 3*2 blocks
}

TEST(Launcher, EmptyGridRejected) {
  Launcher launcher(DeviceSpec::tiny(8));
  EXPECT_THROW(launcher.launch("x", LaunchShape{0, 8, 0, 8}, [](BlockContext&) {}),
               std::invalid_argument);
}

TEST(Launcher, DataActuallyMovesThroughViews) {
  // A miniature end-to-end kernel: each block reverses its own 16-element
  // tile, staging through shared memory.
  Launcher launcher(DeviceSpec::tiny(8));
  std::vector<int> data(64);
  std::iota(data.begin(), data.end(), 0);
  const LaunchShape shape{4, 8, 0, 8};
  launcher.launch("tile_reverse", shape, [&](BlockContext& ctx) {
    GlobalView<int> view(ctx, std::span<int>(data), 0);
    const std::int64_t base = ctx.block_id() * 16;
    SharedTile<int> stage(ctx, 16);
    std::vector<std::int64_t> src(8), dst(8);
    std::vector<int> vals(8);
    for (int half = 0; half < 2; ++half) {
      for (int l = 0; l < 8; ++l) {
        const std::int64_t t = half * 8 + l;
        src[static_cast<std::size_t>(l)] = base + t;
        dst[static_cast<std::size_t>(l)] = 15 - t;
      }
      view.gather(0, src, vals);
      stage.scatter(0, dst, vals);
    }
    ctx.barrier();
    for (int half = 0; half < 2; ++half) {
      for (int l = 0; l < 8; ++l) {
        const std::int64_t t = half * 8 + l;
        src[static_cast<std::size_t>(l)] = t;
        dst[static_cast<std::size_t>(l)] = base + t;
      }
      stage.gather(0, src, vals);
      view.scatter(0, dst, vals);
    }
  });
  for (int b = 0; b < 4; ++b)
    for (int i = 0; i < 16; ++i)
      EXPECT_EQ(data[static_cast<std::size_t>(b * 16 + i)], b * 16 + 15 - i);
}

// ---------------------------------------------------------------------------
// Parallel block executor: bit-identical reports for every thread count.
// ---------------------------------------------------------------------------

namespace {

// A kernel with shared traffic (conflicting and conflict-free), global
// traffic (coalesced and strided), barriers, multiple phases and
// block-dependent costs — every counter and both chain statistics get
// non-trivial values.
void mixed_traffic_body(BlockContext& ctx) {
  const int w = ctx.lanes();
  std::vector<std::int64_t> addrs(static_cast<std::size_t>(w));
  ctx.phase("load");
  for (int warp = 0; warp < ctx.warps(); ++warp) {
    for (int l = 0; l < w; ++l)  // coalesced tile load
      addrs[static_cast<std::size_t>(l)] =
          (ctx.block_id() * ctx.threads() + warp * w + l) * 4;
    ctx.charge_gmem(warp, addrs, 4);
    for (int l = 0; l < w; ++l)  // conflict-free shared store
      addrs[static_cast<std::size_t>(l)] = warp * w + l;
    ctx.charge_shared(warp, addrs, true, true);
  }
  ctx.barrier();
  ctx.phase("search");
  for (int warp = 0; warp < ctx.warps(); ++warp) {
    ctx.charge_compute(warp, 5 + static_cast<std::uint64_t>(ctx.block_id() % 3));
    for (int l = 0; l < w; ++l)  // strided: (block_id+2)-way conflicts vary
      addrs[static_cast<std::size_t>(l)] = l * (ctx.block_id() % w + 2);
    ctx.charge_shared(warp, addrs);
  }
  ctx.barrier();
  ctx.phase("merge");
  for (int warp = 0; warp < ctx.warps(); ++warp) {
    for (int l = 0; l < w; ++l)  // same-bank: worst-case conflicts
      addrs[static_cast<std::size_t>(l)] = l * w;
    ctx.charge_shared(warp, addrs);
    for (int l = 0; l < w; ++l)  // strided global writes
      addrs[static_cast<std::size_t>(l)] = (ctx.block_id() + l * 64) * 4;
    ctx.charge_gmem(warp, addrs, 4, true, true);
    ctx.charge_compute(warp, 11);
  }
}

void expect_bit_identical(const KernelReport& a, const KernelReport& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.shape, b.shape);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.mean_block_chain, b.mean_block_chain);  // exact, not approximate
  EXPECT_EQ(a.max_block_chain, b.max_block_chain);
  EXPECT_EQ(a.timing.cycles, b.timing.cycles);
  EXPECT_EQ(a.timing.microseconds, b.timing.microseconds);
  EXPECT_EQ(a.timing.work_bound, b.timing.work_bound);
  EXPECT_EQ(a.timing.latency_bound, b.timing.latency_bound);
  EXPECT_STREQ(a.timing.limiter, b.timing.limiter);
}

}  // namespace

TEST(LauncherParallel, ReportBitIdenticalAcrossThreadCounts) {
  const LaunchShape shape{13, 16, 0, 16};
  Launcher seq(DeviceSpec::tiny(8));
  seq.set_threads(1);
  const KernelReport ref = seq.launch("mixed", shape, mixed_traffic_body);
  ASSERT_GT(ref.total().bank_conflicts, 0u);
  ASSERT_GT(ref.total().gmem_transactions, 0u);
  ASSERT_GT(ref.total().barriers, 0u);

  for (const int threads : {2, 4, 7}) {
    Launcher par(DeviceSpec::tiny(8));
    par.set_threads(threads);
    EXPECT_EQ(par.threads(), threads);
    const KernelReport r = par.launch("mixed", shape, mixed_traffic_body);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_bit_identical(ref, r);
  }
}

TEST(LauncherParallel, ThreadCountFromDeviceSpec) {
  DeviceSpec dev = DeviceSpec::tiny(8);
  dev.sim_threads = 3;
  Launcher launcher(dev);
  EXPECT_EQ(launcher.threads(), 3);
  launcher.set_threads(0);  // env unset in tests -> sequential default
  EXPECT_GE(launcher.threads(), 1);
  EXPECT_THROW(launcher.set_threads(-1), std::invalid_argument);
}

TEST(LauncherParallel, TraceSinkIdenticalUnderParallelism) {
  const LaunchShape shape{9, 16, 0, 16};
  auto run = [&](int threads, TraceSink& sink) {
    Launcher launcher(DeviceSpec::tiny(8));
    launcher.set_threads(threads);
    launcher.set_trace(&sink);
    launcher.launch("traced", shape, mixed_traffic_body);
  };
  TraceSink ref, par;
  run(1, ref);
  run(4, par);
  ASSERT_GT(ref.size(), 0u);
  ASSERT_EQ(ref.size(), par.size());
  EXPECT_EQ(ref.phase_names(), par.phase_names());
  EXPECT_EQ(ref.shared_conflicts(), par.shared_conflicts());
  // The full event streams (order, fields, per-lane addresses) must match;
  // the CSV serialization covers every field at once.
  std::ostringstream ref_csv, par_csv;
  ref.write_csv(ref_csv);
  par.write_csv(par_csv);
  EXPECT_EQ(ref_csv.str(), par_csv.str());
}

TEST(LauncherParallel, L2ForcesSequentialFallbackDeterministically) {
  DeviceSpec dev = DeviceSpec::tiny(8);
  dev.l2_bytes = 4096;  // enables the order-sensitive shared cache
  auto body = [](BlockContext& ctx) {
    std::vector<std::int64_t> addrs(static_cast<std::size_t>(ctx.lanes()));
    for (int rep = 0; rep < 3; ++rep)  // re-touch the same lines across blocks
      for (int warp = 0; warp < ctx.warps(); ++warp) {
        for (int l = 0; l < ctx.lanes(); ++l)
          addrs[static_cast<std::size_t>(l)] = (warp * ctx.lanes() + l) * 4;
        ctx.charge_gmem(warp, addrs, 4);
      }
  };
  const LaunchShape shape{6, 16, 0, 16};
  Launcher seq(dev);
  seq.set_threads(1);
  const KernelReport ref = seq.launch("l2", shape, body);
  ASSERT_GT(ref.total().l2_hits, 0u);

  Launcher par(dev);
  par.set_threads(4);  // must fall back to sequential while L2 is enabled
  const KernelReport r = par.launch("l2", shape, body);
  expect_bit_identical(ref, r);
  EXPECT_EQ(par.l2()->hits(), seq.l2()->hits());
  EXPECT_EQ(par.l2()->misses(), seq.l2()->misses());
}

TEST(LauncherParallel, ThrowingKernelLeavesLauncherIntact) {
  Launcher launcher(DeviceSpec::tiny(8));
  launcher.set_threads(4);
  TraceSink sink;
  launcher.set_trace(&sink);
  const LaunchShape shape{32, 8, 0, 8};
  // The sink already holds a committed launch's events.
  launcher.launch("before", shape, mixed_traffic_body);
  launcher.clear_history();
  ASSERT_GT(sink.size(), 0u);
  std::ostringstream before_csv;
  sink.write_csv(before_csv);

  auto faulty = [](BlockContext& ctx) {
    std::vector<std::int64_t> addrs{0, 1, 2, 3, 4, 5, 6, 7};
    ctx.charge_shared(0, addrs);
    if (ctx.block_id() % 5 == 2) throw std::runtime_error("injected fault");
  };
  EXPECT_THROW(launcher.launch("faulty", shape, faulty), std::runtime_error);
  // No partial report, no partial trace, no leaked threads (TSan-checked).
  EXPECT_TRUE(launcher.history().empty());
  std::ostringstream after_csv;
  sink.write_csv(after_csv);
  EXPECT_EQ(after_csv.str(), before_csv.str());
  EXPECT_EQ(launcher.total_counters().shared_accesses, 0u);
  sink.clear();

  // The launcher stays usable after the failure.
  const auto report = launcher.launch("ok", shape, [](BlockContext& ctx) {
    ctx.charge_compute(0, 2);
  });
  EXPECT_EQ(report.total().warp_instructions, 64u);
  EXPECT_EQ(launcher.history().size(), 1u);
  EXPECT_EQ(sink.size(), 0u);
}

TEST(LauncherParallel, StressManyBlocksEveryBlockExactlyOnce) {
  constexpr int kBlocks = 768;
  Launcher launcher(DeviceSpec::tiny(8));
  launcher.set_threads(7);
  std::vector<std::atomic<int>> visits(kBlocks);
  const LaunchShape shape{kBlocks, 8, 0, 8};
  const KernelReport report = launcher.launch("stress", shape, [&](BlockContext& ctx) {
    visits[static_cast<std::size_t>(ctx.block_id())].fetch_add(1,
                                                              std::memory_order_relaxed);
    std::vector<std::int64_t> addrs(8);
    for (int l = 0; l < 8; ++l) addrs[static_cast<std::size_t>(l)] = l * 8;  // same bank
    ctx.charge_shared(0, addrs);
    ctx.barrier();
    ctx.charge_compute(0, static_cast<std::uint64_t>(ctx.block_id()) % 17);
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
  EXPECT_EQ(report.total().shared_accesses, static_cast<std::uint64_t>(kBlocks));
  EXPECT_EQ(report.total().barriers, static_cast<std::uint64_t>(kBlocks));

  Launcher seq(DeviceSpec::tiny(8));
  seq.set_threads(1);
  const KernelReport ref = seq.launch("stress", shape, [&](BlockContext& ctx) {
    visits[static_cast<std::size_t>(ctx.block_id())].fetch_add(1,
                                                              std::memory_order_relaxed);
    std::vector<std::int64_t> addrs(8);
    for (int l = 0; l < 8; ++l) addrs[static_cast<std::size_t>(l)] = l * 8;
    ctx.charge_shared(0, addrs);
    ctx.barrier();
    ctx.charge_compute(0, static_cast<std::uint64_t>(ctx.block_id()) % 17);
  });
  expect_bit_identical(ref, report);
}

TEST(LauncherParallel, DataParallelKernelStillMovesData) {
  // The tile-reverse kernel from above, now with a worker pool: blocks write
  // disjoint tiles, so the data outcome must be unchanged.
  Launcher launcher(DeviceSpec::tiny(8));
  launcher.set_threads(4);
  std::vector<int> data(256);
  std::iota(data.begin(), data.end(), 0);
  const LaunchShape shape{16, 8, 0, 8};
  launcher.launch("tile_reverse_par", shape, [&](BlockContext& ctx) {
    GlobalView<int> view(ctx, std::span<int>(data), 0);
    const std::int64_t base = ctx.block_id() * 16;
    SharedTile<int> stage(ctx, 16);
    std::vector<std::int64_t> src(8), dst(8);
    std::vector<int> vals(8);
    for (int half = 0; half < 2; ++half) {
      for (int l = 0; l < 8; ++l) {
        const std::int64_t t = half * 8 + l;
        src[static_cast<std::size_t>(l)] = base + t;
        dst[static_cast<std::size_t>(l)] = 15 - t;
      }
      view.gather(0, src, vals);
      stage.scatter(0, dst, vals);
    }
    ctx.barrier();
    for (int half = 0; half < 2; ++half) {
      for (int l = 0; l < 8; ++l) {
        const std::int64_t t = half * 8 + l;
        src[static_cast<std::size_t>(l)] = t;
        dst[static_cast<std::size_t>(l)] = base + t;
      }
      stage.gather(0, src, vals);
      view.scatter(0, dst, vals);
    }
  });
  for (int b = 0; b < 16; ++b)
    for (int i = 0; i < 16; ++i)
      EXPECT_EQ(data[static_cast<std::size_t>(b * 16 + i)], b * 16 + 15 - i);
}
