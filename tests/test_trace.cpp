// Tests of the access tracer and the DMM trace replay.
#include "gpusim/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>

#include "analysis/trace_replay.hpp"
#include "gpusim/launcher.hpp"
#include "gpusim/memory_views.hpp"
#include "sort/merge_sort.hpp"

using namespace cfmerge;
using namespace cfmerge::gpusim;

TEST(TraceSink, RecordsEventsAndAddresses) {
  TraceSink sink;
  std::vector<std::int64_t> addrs{0, 1, 2, 3};
  sink.record(7, 2, AccessKind::SharedRead, "load", addrs, 0);
  sink.record(7, 2, AccessKind::SharedWrite, "store", addrs, 3);
  ASSERT_EQ(sink.size(), 2u);
  const TraceEvent& e0 = sink.events()[0];
  EXPECT_EQ(e0.block, 7);
  EXPECT_EQ(e0.warp, 2);
  EXPECT_EQ(e0.kind, AccessKind::SharedRead);
  EXPECT_EQ(sink.phase_names()[static_cast<std::size_t>(e0.phase_id)], "load");
  const auto a = sink.addresses(e0);
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a[3], 3);
  EXPECT_EQ(sink.shared_conflicts(), 3);
  EXPECT_EQ(sink.shared_conflicts("store"), 3);
  EXPECT_EQ(sink.shared_conflicts("load"), 0);
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
}

TEST(TraceSink, CsvExport) {
  TraceSink sink;
  std::vector<std::int64_t> addrs{5, -1};
  sink.record(0, 0, AccessKind::GlobalRead, "main", addrs, 1);
  std::ostringstream os;
  sink.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("global_read"), std::string::npos);
  EXPECT_NE(csv.find("5 -1"), std::string::npos);
}

TEST(TraceSink, MergeMovesSegmentsAndRemapsPhases) {
  TraceSink dst;
  const std::vector<std::int64_t> a{10, 11, 12};
  dst.record(0, 0, AccessKind::SharedRead, "load", a, 1);
  dst.record(0, 1, AccessKind::SharedWrite, "store", a, 2);

  // A different phase table: "store" is id 0 here, "load" id 1 in dst,
  // and "merge" is new to dst.
  TraceSink src;
  const std::vector<std::int64_t> b{20, 21};
  const std::vector<std::int64_t> c{30, 31, 32, 33};
  src.record(5, 2, AccessKind::SharedRead, "store", b, 3);
  src.record(5, 3, AccessKind::GlobalRead, "merge", c, 4);

  const std::span<const std::int64_t> dst_span = dst.addresses(dst.events()[1]);
  const std::span<const std::int64_t> src_span = src.addresses(src.events()[1]);
  dst.merge_from(std::move(src));

  EXPECT_EQ(src.size(), 0u);  // moved-from: empty
  EXPECT_TRUE(src.phase_names().empty());

  ASSERT_EQ(dst.size(), 4u);
  EXPECT_EQ(dst.phase_names(), (std::vector<std::string>{"load", "store", "merge"}));
  const auto phase = [&](std::size_t i) {
    return dst.phase_names()[static_cast<std::size_t>(dst.events()[i].phase_id)];
  };
  EXPECT_EQ(phase(0), "load");
  EXPECT_EQ(phase(1), "store");
  EXPECT_EQ(phase(2), "store");
  EXPECT_EQ(phase(3), "merge");
  EXPECT_EQ(dst.events()[2].block, 5);
  EXPECT_EQ(dst.events()[3].warp, 3);
  EXPECT_EQ(dst.shared_conflicts("store"), 2 + 3);

  // Spans taken before the merge read the same values afterwards: the
  // adopted segment changed owner, not address.
  EXPECT_TRUE(std::ranges::equal(dst_span, a));
  EXPECT_TRUE(std::ranges::equal(src_span, c));
  EXPECT_EQ(dst.addresses(dst.events()[3]).data(), src_span.data());
  EXPECT_TRUE(std::ranges::equal(dst.addresses(dst.events()[2]), b));

  // Recording after a merge keeps appending in order.
  dst.record(6, 0, AccessKind::SharedRead, "merge", a, 0);
  ASSERT_EQ(dst.size(), 5u);
  EXPECT_TRUE(std::ranges::equal(dst.addresses(dst.events()[4]), a));
  std::ostringstream os;
  dst.write_csv(os);
  EXPECT_EQ(os.str(),
            "block,warp,kind,phase,cost,addresses\n"
            "0,0,shared_read,load,1,10 11 12\n"
            "0,1,shared_write,store,2,10 11 12\n"
            "5,2,shared_read,store,3,20 21\n"
            "5,3,global_read,merge,4,30 31 32 33\n"
            "6,0,shared_read,merge,0,10 11 12\n");
}

TEST(Tracing, LauncherAttachesSinkToEveryBlock) {
  Launcher launcher(DeviceSpec::tiny(8));
  TraceSink sink;
  launcher.set_trace(&sink);
  launcher.launch("k", LaunchShape{3, 8, 0, 8}, [](BlockContext& ctx) {
    SharedTile<int> tile(ctx, 8);
    std::vector<std::int64_t> addrs{0, 1, 2, 3, 4, 5, 6, 7};
    std::vector<int> vals(8, 1);
    ctx.phase("p1");
    tile.scatter(0, addrs, vals);
    tile.gather(0, addrs, vals);
  });
  EXPECT_EQ(sink.size(), 6u);  // 2 accesses x 3 blocks
  int reads = 0, writes = 0;
  for (const auto& e : sink.events()) {
    if (e.kind == AccessKind::SharedRead) ++reads;
    if (e.kind == AccessKind::SharedWrite) ++writes;
  }
  EXPECT_EQ(reads, 3);
  EXPECT_EQ(writes, 3);
  launcher.set_trace(nullptr);
  launcher.launch("k2", LaunchShape{1, 8, 0, 8}, [](BlockContext&) {});
  EXPECT_EQ(sink.size(), 6u);  // detached: no new events
}

TEST(Tracing, TraceConflictsMatchCounters) {
  // The trace's conflict totals must agree with the live counters for a
  // real kernel run.
  std::mt19937_64 rng(1);
  Launcher launcher(DeviceSpec::tiny(8));
  TraceSink sink;
  launcher.set_trace(&sink);
  sort::MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  cfg.variant = sort::Variant::Baseline;
  std::vector<int> data(16 * 5 * 4);
  for (auto& x : data) x = static_cast<int>(rng() % 1000);
  const auto report = sort::merge_sort(launcher, data, cfg);
  EXPECT_EQ(static_cast<std::uint64_t>(sink.shared_conflicts()),
            report.totals.bank_conflicts);
  EXPECT_EQ(static_cast<std::uint64_t>(sink.shared_conflicts("merge.merge")),
            report.merge_conflicts());
}

TEST(TraceReplay, DirectMapReproducesRecordedConflicts) {
  std::mt19937_64 rng(2);
  Launcher launcher(DeviceSpec::tiny(8));
  TraceSink sink;
  launcher.set_trace(&sink);
  sort::MergeConfig cfg;
  cfg.e = 6;
  cfg.u = 16;
  cfg.variant = sort::Variant::Baseline;
  std::vector<int> data(16 * 6 * 4);
  for (auto& x : data) x = static_cast<int>(rng() % 1000);
  sort::merge_sort(launcher, data, cfg);

  const auto direct = analysis::replay_shared(sink, dmm::DirectMap(8));
  EXPECT_EQ(direct.total_conflicts, sink.shared_conflicts());
}

TEST(TraceReplay, AlternativeMappingsChangeThePicture) {
  // Replaying the baseline's conflicted merge phase under skewed / hashed
  // bank mappings: the conflict profile changes (usually improves for the
  // adversarial patterns, worsens for patterns tuned to the direct map).
  std::mt19937_64 rng(3);
  Launcher launcher(DeviceSpec::tiny(8, 1));
  TraceSink sink;
  launcher.set_trace(&sink);
  sort::MergeConfig cfg;
  cfg.e = 8;  // gcd(8,8)=8: stride-8 patterns serialize fully on direct map
  cfg.u = 16;
  cfg.variant = sort::Variant::Baseline;
  std::vector<int> data(16 * 8 * 2);
  for (auto& x : data) x = static_cast<int>(rng() % 1000);
  sort::merge_sort(launcher, data, cfg);

  const auto results = analysis::replay_standard_mappings(sink, 8, "bsort.thread_sort");
  ASSERT_EQ(results.size(), 3u);
  const auto& direct = results[0];
  const auto& skew = results[1];
  EXPECT_GT(direct.total_conflicts, 0);     // stride-8 serializes on mod-8 banks
  EXPECT_LT(skew.total_conflicts, direct.total_conflicts);  // skewing fixes strides
  EXPECT_EQ(direct.mapping_overhead_ops, 0);
  EXPECT_GT(skew.mapping_overhead_ops, 0);
}

TEST(TraceReplay, PhaseFilterWorks) {
  TraceSink sink;
  std::vector<std::int64_t> strided{0, 8, 16, 24, 32, 40, 48, 56};
  sink.record(0, 0, AccessKind::SharedRead, "hot", strided, 7);
  std::vector<std::int64_t> fine{0, 1, 2, 3, 4, 5, 6, 7};
  sink.record(0, 0, AccessKind::SharedRead, "cool", fine, 0);
  const auto hot = analysis::replay_shared(sink, dmm::DirectMap(8), "hot");
  EXPECT_EQ(hot.shared_accesses, 1);
  EXPECT_EQ(hot.total_conflicts, 7);
  const auto all = analysis::replay_shared(sink, dmm::DirectMap(8));
  EXPECT_EQ(all.shared_accesses, 2);
  EXPECT_EQ(all.total_conflicts, 7);
}
