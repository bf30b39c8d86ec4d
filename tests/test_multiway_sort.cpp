// End-to-end tests of the k-way multiway mergesort: std::sort oracle over
// both merge variants, pass-count arithmetic, key-value payloads, and
// bit-identical replay across host worker counts and graph-execution modes.
#include "sort/multiway_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <vector>

#include "sort/engine.hpp"
#include "sort/merge_sort.hpp"

using namespace cfmerge;
using namespace cfmerge::sort;
using gpusim::DeviceSpec;
using gpusim::GraphExec;
using gpusim::Launcher;

namespace {

std::vector<int> rand_vec(std::mt19937_64& rng, std::int64_t n, int range = 1000000) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (auto& x : v)
    x = static_cast<int>(rng() % static_cast<std::uint64_t>(range)) - range / 2;
  return v;
}

int expected_passes(std::int64_t n, std::int64_t tile, int k) {
  const std::int64_t n_padded = (n + tile - 1) / tile * tile;
  int passes = 0;
  for (std::int64_t run = tile; run < n_padded; run *= k) ++passes;
  return passes;
}

}  // namespace

struct MultiwayCase {
  int w, e, u, k;
  std::int64_t n;
  MultiwayVariant variant;
};

class MultiwaySortCases : public ::testing::TestWithParam<MultiwayCase> {};

TEST_P(MultiwaySortCases, SortsCorrectly) {
  const MultiwayCase c = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(c.n) * 131 + c.e * 7 + c.k);
  std::vector<int> data = rand_vec(rng, c.n);
  std::vector<int> expect = data;
  std::sort(expect.begin(), expect.end());

  Launcher launcher(DeviceSpec::tiny(c.w));
  MultiwayConfig cfg;
  cfg.e = c.e;
  cfg.u = c.u;
  cfg.k = c.k;
  cfg.variant = c.variant;
  const SortReport report = merge_sort_multiway(launcher, data, cfg);
  ASSERT_EQ(data, expect);
  EXPECT_EQ(report.n, c.n);
  EXPECT_EQ(report.passes, expected_passes(c.n, cfg.tile(), c.k));
  EXPECT_GT(report.microseconds, 0.0);
}

namespace {
std::vector<MultiwayCase> multiway_cases() {
  std::vector<MultiwayCase> cases;
  for (const MultiwayVariant v :
       {MultiwayVariant::CFCascade, MultiwayVariant::LoserTree}) {
    for (const int k : {2, 4, 8}) {
      // Multiple of one tile; enough tiles for >= 2 global passes at k = 8.
      cases.push_back({8, 5, 16, k, 16 * 5 * 64, v});
      // Ragged n (padding path), non-coprime E.
      cases.push_back({8, 6, 16, k, 16 * 6 * 9 + 13, v});
      // Single tile: no merge pass at all.
      cases.push_back({8, 5, 16, k, 16 * 5, v});
      // Tiny n (one partial tile).
      cases.push_back({8, 5, 16, k, 7, v});
    }
    // w = 32 with a paper-like E, scaled down.
    cases.push_back({32, 15, 64, 4, 64 * 15 * 16, v});
  }
  // Non-power-of-two arity is LoserTree-only.
  cases.push_back({8, 5, 16, 3, 16 * 5 * 27 + 5, MultiwayVariant::LoserTree});
  return cases;
}
}  // namespace

INSTANTIATE_TEST_SUITE_P(
    Shapes, MultiwaySortCases, ::testing::ValuesIn(multiway_cases()),
    [](const ::testing::TestParamInfo<MultiwayCase>& info) {
      const auto& c = info.param;
      return std::string(c.variant == MultiwayVariant::CFCascade ? "cascade" : "loser") +
             "_w" + std::to_string(c.w) + "_E" + std::to_string(c.e) + "_k" +
             std::to_string(c.k) + "_n" + std::to_string(c.n);
    });

TEST(MultiwaySort, HeavyDuplicatesSortCorrectly) {
  std::mt19937_64 rng(77);
  for (const MultiwayVariant v :
       {MultiwayVariant::CFCascade, MultiwayVariant::LoserTree}) {
    std::vector<int> data = rand_vec(rng, 16 * 5 * 32 + 9, /*range=*/7);
    std::vector<int> expect = data;
    std::sort(expect.begin(), expect.end());
    Launcher launcher(DeviceSpec::tiny(8));
    MultiwayConfig cfg;
    cfg.e = 5;
    cfg.u = 16;
    cfg.k = 4;
    cfg.variant = v;
    merge_sort_multiway(launcher, data, cfg);
    EXPECT_EQ(data, expect);
  }
}

TEST(MultiwaySort, CascadeMergePhaseIsConflictFreeLoserTreeIsNot) {
  std::mt19937_64 rng(99);
  std::vector<int> input = rand_vec(rng, 16 * 5 * 64);

  auto run = [&](MultiwayVariant v) {
    std::vector<int> data = input;
    Launcher launcher(DeviceSpec::tiny(8));
    MultiwayConfig cfg;
    cfg.e = 5;
    cfg.u = 16;
    cfg.k = 4;
    cfg.variant = v;
    return merge_sort_multiway(launcher, data, cfg);
  };
  const SortReport cascade = run(MultiwayVariant::CFCascade);
  const SortReport loser = run(MultiwayVariant::LoserTree);

  // The cascade's loads, gather rounds and rank scatters are the proven CF
  // schedule: zero conflicts outside the (data-dependent, both-variant)
  // merge.search co-rank probes.  The loser tree's data-dependent head
  // replacement gathers conflict — that is the point of the baseline.
  auto phase_conflicts = [](const SortReport& r, const char* name) {
    std::uint64_t sum = 0;
    for (const auto& [phase, counters] : r.phases.phases())
      if (phase == name) sum += counters.bank_conflicts;
    return sum;
  };
  EXPECT_EQ(phase_conflicts(cascade, "merge.load"), 0u);
  EXPECT_EQ(phase_conflicts(cascade, "merge.merge"), 0u);
  EXPECT_EQ(phase_conflicts(cascade, "merge.store"), 0u);
  EXPECT_GT(phase_conflicts(loser, "merge.merge"), 0u);
}

TEST(MultiwaySort, MatchesPairwiseSortOutputBitIdentically) {
  std::mt19937_64 rng(123);
  std::vector<int> input = rand_vec(rng, 16 * 5 * 32 + 3);

  std::vector<int> pairwise = input;
  {
    Launcher launcher(DeviceSpec::tiny(8));
    MergeConfig cfg;
    cfg.e = 5;
    cfg.u = 16;
    cfg.variant = Variant::CFMerge;
    merge_sort(launcher, pairwise, cfg);
  }
  for (const int k : {2, 4, 8}) {
    std::vector<int> data = input;
    Launcher launcher(DeviceSpec::tiny(8));
    MultiwayConfig cfg;
    cfg.e = 5;
    cfg.u = 16;
    cfg.k = k;
    merge_sort_multiway(launcher, data, cfg);
    EXPECT_EQ(data, pairwise) << "k=" << k;
  }
}

TEST(MultiwaySort, KeyValuePayloadsFollowTheirKeys) {
  std::mt19937_64 rng(31);
  const std::int64_t n = 16 * 5 * 24 + 11;
  // Distinct keys give a unique sorted order for the payload check (and stay
  // clear of the numeric-limits padding sentinel).
  std::vector<int> keys(static_cast<std::size_t>(n));
  std::iota(keys.begin(), keys.end(), -1000);
  std::shuffle(keys.begin(), keys.end(), rng);
  std::vector<long long> values(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    values[i] = static_cast<long long>(keys[i]) * 3 + 1;

  for (const MultiwayVariant v :
       {MultiwayVariant::CFCascade, MultiwayVariant::LoserTree}) {
    auto k2 = keys;
    auto v2 = values;
    Launcher launcher(DeviceSpec::tiny(8));
    MultiwayConfig cfg;
    cfg.e = 5;
    cfg.u = 16;
    cfg.k = 4;
    cfg.variant = v;
    merge_sort_multiway_by_key(launcher, k2, v2, cfg);
    EXPECT_TRUE(std::is_sorted(k2.begin(), k2.end()));
    for (std::size_t i = 0; i < k2.size(); ++i)
      ASSERT_EQ(v2[i], static_cast<long long>(k2[i]) * 3 + 1) << "i=" << i;
  }
}

TEST(MultiwaySort, BitIdenticalAcrossThreadCountsAndExecModes) {
  std::mt19937_64 rng(55);
  const std::vector<int> input = rand_vec(rng, 16 * 5 * 16 + 7);

  Launcher ref_launcher(DeviceSpec::tiny(8));
  ref_launcher.set_threads(1);
  SortEngine ref_engine(ref_launcher);
  MultiwayConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  cfg.k = 4;
  auto ref_data = input;
  const SortReport ref = ref_engine.sort_multiway(ref_data, cfg);
  EXPECT_TRUE(std::is_sorted(ref_data.begin(), ref_data.end()));

  for (const GraphExec mode : {GraphExec::Serial, GraphExec::Overlap}) {
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE((mode == GraphExec::Serial ? "serial" : "overlap") +
                   std::string(" threads=") + std::to_string(threads));
      Launcher launcher(DeviceSpec::tiny(8));
      launcher.set_threads(threads);
      SortEngine engine(launcher);
      auto cold = input;
      const SortReport cold_rep = engine.sort_multiway(cold, cfg, mode);
      auto warm = input;
      const SortReport warm_rep = engine.sort_multiway(warm, cfg, mode);  // replay
      EXPECT_EQ(engine.stats().plan_hits, 1u);
      EXPECT_EQ(cold, ref_data);
      EXPECT_EQ(warm, ref_data);
      for (const SortReport* rep : {&cold_rep, &warm_rep}) {
        EXPECT_EQ(rep->passes, ref.passes);
        EXPECT_EQ(rep->totals.bank_conflicts, ref.totals.bank_conflicts);
        EXPECT_EQ(rep->totals.shared_accesses, ref.totals.shared_accesses);
        EXPECT_EQ(rep->totals.warp_instructions, ref.totals.warp_instructions);
        EXPECT_DOUBLE_EQ(rep->microseconds, ref.microseconds);
      }
    }
  }
}

TEST(MultiwaySort, PlanCacheKeysDistinguishArityAndVariant) {
  std::mt19937_64 rng(88);
  const std::vector<int> input = rand_vec(rng, 16 * 5 * 8);
  Launcher launcher(DeviceSpec::tiny(8));
  SortEngine engine(launcher);
  MultiwayConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  for (const int k : {2, 4}) {
    for (const MultiwayVariant v :
         {MultiwayVariant::CFCascade, MultiwayVariant::LoserTree}) {
      cfg.k = k;
      cfg.variant = v;
      auto data = input;
      engine.sort_multiway(data, cfg);
      EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
    }
  }
  // Four distinct (k, variant) digests: all cold builds, no false hits.
  EXPECT_EQ(engine.stats().plan_hits, 0u);
  EXPECT_EQ(engine.stats().plan_misses, 4u);
}

TEST(MultiwaySort, EmptySingletonAndInvalidConfigs) {
  Launcher launcher(DeviceSpec::tiny(8));
  MultiwayConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  cfg.k = 4;
  std::vector<int> empty;
  EXPECT_EQ(merge_sort_multiway(launcher, empty, cfg).n, 0);
  std::vector<int> one{42};
  merge_sort_multiway(launcher, one, cfg);
  EXPECT_EQ(one, std::vector<int>{42});

  std::vector<int> data{3, 1, 2};
  MultiwayConfig bad = cfg;
  bad.k = 3;  // CFCascade needs a power of two
  EXPECT_THROW((void)merge_sort_multiway(launcher, data, bad), std::invalid_argument);
  bad = cfg;
  bad.k = 1;
  EXPECT_THROW((void)merge_sort_multiway(launcher, data, bad), std::invalid_argument);
  bad = cfg;
  bad.k = 32;  // > kMaxMultiwayK
  EXPECT_THROW((void)merge_sort_multiway(launcher, data, bad), std::invalid_argument);
  bad = cfg;
  bad.u = 12;  // not a warp multiple
  EXPECT_THROW((void)merge_sort_multiway(launcher, data, bad), std::invalid_argument);
}

TEST(MultiwaySort, BlockThatDoesNotFitOnAnSmIsRejectedUpFront) {
  // The cascade's two stage buffers make a k=4, u=512 block too big for a
  // Turing SM's shared memory: the engine rejects it before any kernel
  // runs, naming k, u and the shared bytes, and leaves no history behind.
  Launcher launcher(DeviceSpec::scaled_turing(4));
  SortEngine engine(launcher);
  std::mt19937_64 rng(13);
  std::vector<int> data = rand_vec(rng, 100000);
  MultiwayConfig cfg;
  cfg.e = 15;
  cfg.u = 256;
  cfg.k = 4;
  engine.sort_multiway(data, cfg);  // fits: leaves a history
  ASSERT_FALSE(launcher.history().empty());

  cfg.u = 512;
  data = rand_vec(rng, 100000);
  const std::size_t bytes = detail::multiway_merge_shared_bytes<int>(cfg, 32);
  try {
    engine.sort_multiway(data, cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("k=4"), std::string::npos) << msg;
    EXPECT_NE(msg.find("u=512"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(bytes) + " shared bytes"), std::string::npos) << msg;
  }
  EXPECT_TRUE(launcher.history().empty());
  EXPECT_EQ(engine.stats().plan_misses, 1u);  // no plan was built for u=512
}
