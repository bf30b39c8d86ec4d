// Tests of the content-addressed plan identity (sort/plan_key.hpp): type
// digests are distinct across the element types the engine plans for and
// never depend on type names; DeviceSpec::digest() hashes exactly the
// planning-relevant fields; config_digest folds every semantic knob; and a
// PlanKey sweep across all plan kinds serializes to unique store keys.
#include "sort/plan_key.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "cache/serial.hpp"
#include "gpusim/device_spec.hpp"
#include "sort/certs.hpp"
#include "sort/key_value.hpp"

using namespace cfmerge;
using namespace cfmerge::sort;

TEST(TypeDigest, DistinctAcrossPlannedTypes) {
  const std::vector<std::uint64_t> digests = {
      type_digest<std::int32_t>().bits,
      type_digest<std::uint32_t>().bits,
      type_digest<std::int64_t>().bits,
      type_digest<std::uint64_t>().bits,
      type_digest<float>().bits,
      type_digest<double>().bits,
      type_digest<KeyValue<std::int32_t, std::int32_t>>().bits,
      type_digest<KeyValue<std::int32_t, std::int64_t>>().bits,
      type_digest<KeyValue<std::int64_t, std::int32_t>>().bits,
      type_digest<KeyValue<float, std::int32_t>>().bits,
  };
  const std::set<std::uint64_t> unique(digests.begin(), digests.end());
  EXPECT_EQ(unique.size(), digests.size());
}

TEST(TypeDigest, PairDigestComposesComponentDigests) {
  // Swapping key and value types must change the digest even though the
  // pair's size and alignment stay the same.
  EXPECT_NE((type_digest<KeyValue<std::int32_t, std::int64_t>>()),
            (type_digest<KeyValue<std::int64_t, std::int32_t>>()));
  // A pair of two ints is not the same identity as a bare 8-byte scalar.
  EXPECT_NE((type_digest<KeyValue<std::int32_t, std::int32_t>>()),
            type_digest<std::int64_t>());
}

TEST(TypeDigest, StableAcrossEvaluations) {
  constexpr TypeDigest a = type_digest<std::int32_t>();
  const TypeDigest b = type_digest<std::int32_t>();
  EXPECT_EQ(a, b);
}

TEST(DeviceDigest, IgnoresNameAndHostSideFields) {
  const gpusim::DeviceSpec base = gpusim::DeviceSpec::rtx2080ti();
  gpusim::DeviceSpec renamed = base;
  renamed.name = "some-other-label";
  EXPECT_EQ(base.digest(), renamed.digest());

  gpusim::DeviceSpec host_tuned = base;
  host_tuned.sim_threads = 8;
  host_tuned.bulk_charge = false;  // counters/timing bit-identical either way
  EXPECT_EQ(base.digest(), host_tuned.digest());
}

TEST(DeviceDigest, ChangesWithEveryPlanningField) {
  const gpusim::DeviceSpec base = gpusim::DeviceSpec::rtx2080ti();
  std::set<std::uint64_t> digests = {base.digest()};
  auto expect_new = [&](gpusim::DeviceSpec d, const char* what) {
    SCOPED_TRACE(what);
    EXPECT_TRUE(digests.insert(d.digest()).second);
  };
  {
    auto d = base;
    d.warp_size = 16;
    expect_new(d, "warp_size");
  }
  {
    auto d = base;
    d.num_sms = 4;
    expect_new(d, "num_sms");
  }
  {
    auto d = base;
    d.max_threads_per_sm = 512;
    expect_new(d, "max_threads_per_sm");
  }
  {
    auto d = base;
    d.shared_bytes_per_sm = 32 * 1024;
    expect_new(d, "shared_bytes_per_sm");
  }
  {
    auto d = base;
    d.shared_latency = 30;
    expect_new(d, "shared_latency");
  }
  {
    auto d = base;
    d.l2_bytes = 4 << 20;
    expect_new(d, "l2_bytes");
  }
  {
    auto d = base;
    d.clock_ghz = 1.0;
    expect_new(d, "clock_ghz");
  }
  {
    auto d = base;
    d.launch_overhead_cycles = 0.0;
    expect_new(d, "launch_overhead_cycles");
  }
  EXPECT_NE(gpusim::DeviceSpec::tiny(8).digest(), gpusim::DeviceSpec::tiny(16).digest());
}

namespace {

/// Collects `key` into `seen`, asserting both the struct and its canonical
/// serialization are new (the serialized form is the persistent store key,
/// so a struct-level collision AND a byte-level collision are each bugs).
void expect_unique(std::set<std::vector<std::byte>>& seen, const PlanKey& key) {
  EXPECT_TRUE(seen.insert(key.serialized()).second);
}

}  // namespace

TEST(PlanKey, UniqueAcrossKindsAndEveryConfigKnob) {
  std::set<std::vector<std::byte>> seen;
  const TypeDigest ti32 = type_digest<std::int32_t>();

  // Pairwise sort: every MergeConfig knob must reach the key.
  MergeConfig m;
  m.e = 5;
  m.u = 16;
  expect_unique(seen, {PlanKey::Kind::Sort, ti32, 320, 0, config_digest(m)});
  {
    auto c = m;
    c.e = 7;
    expect_unique(seen, {PlanKey::Kind::Sort, ti32, 320, 0, config_digest(c)});
  }
  {
    auto c = m;
    c.u = 32;
    expect_unique(seen, {PlanKey::Kind::Sort, ti32, 320, 0, config_digest(c)});
  }
  {
    auto c = m;
    c.variant = Variant::Baseline;
    expect_unique(seen, {PlanKey::Kind::Sort, ti32, 320, 0, config_digest(c)});
  }
  {
    auto c = m;
    c.disable_rho = true;
    expect_unique(seen, {PlanKey::Kind::Sort, ti32, 320, 0, config_digest(c)});
  }
  {
    auto c = m;
    c.cf_output_scatter = false;  // defaults to true
    expect_unique(seen, {PlanKey::Kind::Sort, ti32, 320, 0, config_digest(c)});
  }
  {
    auto c = m;
    c.cf_blocksort = true;
    expect_unique(seen, {PlanKey::Kind::Sort, ti32, 320, 0, config_digest(c)});
  }
  // Other dimensions: padded length, element type, kind.
  expect_unique(seen, {PlanKey::Kind::Sort, ti32, 640, 0, config_digest(m)});
  expect_unique(seen, {PlanKey::Kind::Sort, type_digest<std::int64_t>(), 320, 0,
                       config_digest(m)});
  expect_unique(seen, {PlanKey::Kind::Batched, ti32, 320, 0, config_digest(m)});
  expect_unique(seen, {PlanKey::Kind::Batched, ti32, 320, 0x1234, config_digest(m)});

  // Multiway: its own tag, plus k and variant knobs.
  MultiwayConfig mw;
  mw.e = 5;
  mw.u = 16;
  mw.k = 4;
  expect_unique(seen, {PlanKey::Kind::Multiway, ti32, 320, 0, config_digest(mw)});
  {
    auto c = mw;
    c.k = 8;
    expect_unique(seen, {PlanKey::Kind::Multiway, ti32, 320, 0, config_digest(c)});
  }
  {
    auto c = mw;
    c.variant = MultiwayVariant::LoserTree;
    expect_unique(seen, {PlanKey::Kind::Multiway, ti32, 320, 0, config_digest(c)});
  }
  {
    auto c = mw;
    c.cf_blocksort = true;
    expect_unique(seen, {PlanKey::Kind::Multiway, ti32, 320, 0, config_digest(c)});
  }

  // Permute / transpose: direction is a key bit (the former ad hoc fold).
  cfprims::PermuteConfig p;
  p.e = 5;
  p.u = 16;
  expect_unique(seen, {PlanKey::Kind::Permute, ti32, 320, 0, config_digest(p)});
  {
    auto c = p;
    c.inverse = true;
    expect_unique(seen, {PlanKey::Kind::Permute, ti32, 320, 0, config_digest(c)});
  }
  {
    auto c = p;
    c.op = cfprims::PermuteOp::kTranspose;
    expect_unique(seen, {PlanKey::Kind::Transpose, ti32, 320, 0, config_digest(c)});
  }
}

TEST(PlanKey, ConfigDigestTagsKeepConfigTypesDisjoint) {
  // Same (e, u) and all-default flags across the three config types must
  // not alias: each digest starts from a distinct tag.
  MergeConfig m;
  m.e = 5;
  m.u = 16;
  MultiwayConfig mw;
  mw.e = 5;
  mw.u = 16;
  cfprims::PermuteConfig p;
  p.e = 5;
  p.u = 16;
  const std::set<std::uint64_t> digests = {config_digest(m), config_digest(mw),
                                           config_digest(p)};
  EXPECT_EQ(digests.size(), 3u);
}

TEST(PlanKey, ConfigDigestIgnoresResolvedCerts) {
  // The engine keys every plan on its certified config; the certificate
  // bundle is a pure function of (w, e), so resolving it must not move the
  // digest — otherwise a certified and an uncertified key would split the
  // cache.
  MergeConfig m;
  MultiwayConfig mw;
  const std::uint64_t m_plain = config_digest(m);
  const std::uint64_t mw_plain = config_digest(mw);
  m.certs = resolve_tile_certs(32, m.e);
  mw.certs = resolve_tile_certs(32, mw.e);
  ASSERT_TRUE(m.certs.any());
  ASSERT_TRUE(mw.certs.any());
  EXPECT_EQ(config_digest(m), m_plain);
  EXPECT_EQ(config_digest(mw), mw_plain);
}

TEST(PlanKey, SerializeDeserializeRoundTrips) {
  MergeConfig m;
  m.e = 15;
  m.u = 512;
  const PlanKey key{PlanKey::Kind::Batched, type_digest<float>(), 7680, 0xdeadbeef,
                    config_digest(m)};
  const std::vector<std::byte> bytes = key.serialized();

  cache::ByteReader r(bytes);
  PlanKey back;
  ASSERT_TRUE(back.deserialize(r));
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(back, key);
}

TEST(PlanKey, DeserializeRejectsSchemaVersionMismatch) {
  const PlanKey key{PlanKey::Kind::Sort, type_digest<std::int32_t>(), 320, 0, 1};
  cache::ByteWriter w;
  w.u32(kPlanKeySchemaVersion + 1);  // future schema
  w.u8(0);
  w.u64(key.type.bits);
  w.i64(key.n_padded);
  w.u64(key.shape_digest);
  w.u64(key.config_digest);
  const std::vector<std::byte> bytes = w.take();

  cache::ByteReader r(bytes);
  PlanKey back;
  EXPECT_FALSE(back.deserialize(r));

  // A truncated buffer is also rejected (reader latches not-ok).
  const std::vector<std::byte> full = key.serialized();
  cache::ByteReader short_r(std::span<const std::byte>(full.data(), 10));
  EXPECT_FALSE(back.deserialize(short_r));
}
