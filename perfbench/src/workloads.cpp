#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <climits>
#include <cmath>
#include <exception>
#include <random>
#include <typeinfo>
#include <stdexcept>

#include "oracle.hpp"
#include "sort/certs.hpp"
#include "verify/certificate.hpp"
#include "verify/shadow.hpp"
#include "workloads/generators.hpp"

namespace perfbench {

using namespace cfmerge;

namespace {

using Key = std::int32_t;
using Pair = sort::KeyValue<Key, Key>;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::vector<Key> random_keys(std::int64_t n, std::mt19937_64& rng) {
  std::vector<Key> v(static_cast<std::size_t>(n));
  for (Key& x : v) x = static_cast<Key>(rng());
  return v;
}

sort::MergeConfig merge_cfg(int e, int u, sort::Variant variant) {
  sort::MergeConfig c;
  c.e = e;
  c.u = u;
  c.variant = variant;
  return c;
}

/// The device every workload simulates (the cfsort default, turing:4).
gpusim::DeviceSpec bench_device() { return gpusim::DeviceSpec::scaled_turing(4); }

std::int64_t padded(std::int64_t n, std::int64_t tile) { return (n + tile - 1) / tile * tile; }

bool same_kernel(const gpusim::KernelReport& a, const gpusim::KernelReport& b) {
  return a.name == b.name && a.counters == b.counters &&
         a.timing.microseconds == b.timing.microseconds;
}

bool same_report(const sort::SortReport& a, const sort::SortReport& b) {
  if (!(a.totals == b.totals && a.phases == b.phases && a.microseconds == b.microseconds &&
        a.makespan_microseconds == b.makespan_microseconds &&
        a.kernels.size() == b.kernels.size()))
    return false;
  for (std::size_t k = 0; k < a.kernels.size(); ++k)
    if (!same_kernel(a.kernels[k], b.kernels[k])) return false;
  return true;
}

bool same_elem(Key a, Key b) { return a == b; }
bool same_elem(const Pair& a, const Pair& b) { return a.key == b.key && a.value == b.value; }

/// Copies the simulated side of an engine report (and the launcher's
/// charging-tier split for that call) into the record.
template <typename Report>
void take_report(OpRecord& rec, const Report& rep, const gpusim::Launcher& launcher) {
  rec.sim_us = rep.makespan_microseconds;
  rec.totals = rep.totals;
  rec.kernels = rep.kernels;
  rec.bulk_charges = launcher.bulk_charges();
  rec.lane_charges = launcher.lane_charges();
}

/// A fresh record of op `id`: `n` elements through `entry`, padded to `tile`.
OpRecord start(std::int64_t id, std::string entry, std::int64_t n, std::int64_t tile) {
  OpRecord rec;
  rec.id = id;
  rec.entry = std::move(entry);
  rec.n = n;
  rec.n_padded = padded(n, tile);
  return rec;
}

}  // namespace

// ---------------------------------------------------------------------------
// Workload: launcher, engine, the engine calls and their traced replay.

void Workload::rebuild(Tracer& tracer) {
  engine_.reset();
  launcher_ = std::make_unique<gpusim::Launcher>(bench_device());
  launcher_->set_threads(workers_);
  engine_ = std::make_unique<sort::SortEngine>(*launcher_);
  replay_plans_.clear();
  auto span = tracer.scope("verify.certify");
  for (int e : es_) (void)sort::resolve_tile_certs(launcher_->device().warp_size, e);
  certify_ms_ = span.stop();
}

std::mt19937_64 Workload::rng(std::int64_t id) const {
  return std::mt19937_64(op_seed(seed_, id));
}

/// `cfg` with the certificate bundle resolved, as the engine builds its
/// plans (SortEngine::with_certs).
template <typename Cfg>
Cfg Workload::certified(Cfg cfg) const {
  cfg.certs = sort::resolve_tile_certs(launcher_->device().warp_size, cfg.e);
  return cfg;
}

/// Times the engine call under a "sort.<entry>" span and takes the
/// certificate lookups it made.  A throwing call is a failed op; returns
/// false then.
template <typename Fn>
bool Workload::call(OpRecord& rec, Tracer& tracer, Fn&& fn) {
  const std::uint64_t hits = verify::certificate_stats().hits;
  auto span = tracer.scope("sort." + rec.entry, rec.id);
  bool ok = true;
  try {
    fn();
  } catch (const std::exception& e) {
    rec.fail(std::string("engine threw: ") + e.what());
    ok = false;
  }
  rec.host_ms = span.stop();
  rec.cert_hits = verify::certificate_stats().hits - hits;
  return ok;
}

/// Replays one plan's kernel graph in enqueue order through
/// Launcher::launch, one span per kernel, and checks each replayed report
/// against the engine's report at the same position.
void Workload::replay_nodes(const gpusim::KernelGraph& graph, Tracer& tracer, OpRecord& rec,
                            std::size_t& k) {
  for (const gpusim::KernelNode& node : graph.nodes()) {
    auto span = tracer.scope("gpusim.launch." + node.name, rec.id);
    const gpusim::KernelReport rep = launcher_->launch(node.name, node.shape, node.body);
    rec.launches.push_back({node.name, span.stop(), rep.total().shared_accesses});
    if (k >= rec.kernels.size() || !same_kernel(rep, rec.kernels[k]))
      rec.fail("replayed kernel " + std::to_string(k) + " (" + node.name +
               ") differs from the engine's report");
    ++k;
  }
}

/// The replay's own plan for a key, built on first use and kept (like the
/// engine's plan cache) so replayed kernels run on long-lived buffers, as
/// the engine's cached plans do.
template <typename Plan, typename Cfg, typename... Extra>
Plan& Workload::replay_plan_for(Tracer& tracer, std::int64_t id, const Cfg& certified,
                                std::int64_t n_padded, Extra... extra) {
  std::string key = std::string(typeid(Plan).name()) + ":" + std::to_string(n_padded) + ":" +
                    std::to_string(certified.e) + ":" + std::to_string(certified.u) + ":" +
                    std::to_string(static_cast<int>(certified.variant));
  if constexpr (requires { certified.k; }) key += ":" + std::to_string(certified.k);
  std::shared_ptr<void>& slot = replay_plans_[key];
  if (!slot) {
    auto ps = tracer.scope("replay.plan", id);
    slot = std::make_shared<Plan>(certified, n_padded, extra...);
  }
  return *std::static_pointer_cast<Plan>(slot);
}

/// The traced replay: the engine's plan type with the certified config,
/// the same input loaded, every graph node launched in order.
template <typename Plan, typename T, typename Cfg, typename... Extra>
void Workload::replay_plan(OpRecord& rec, Tracer& tracer, const std::vector<T>& engine_out,
                           const std::vector<T>& input, const Cfg& certified,
                           Extra... extra) {
  auto span = tracer.scope("replay", rec.id);
  Plan& plan = replay_plan_for<Plan>(tracer, rec.id, certified, rec.n_padded, extra...);
  {
    auto ls = tracer.scope("replay.load", rec.id);
    plan.load(input);
  }
  std::size_t k = 0;
  replay_nodes(plan.graph, tracer, rec, k);
  if (k != rec.kernels.size()) rec.fail("replay launched a different kernel count");
  if (!std::equal(engine_out.begin(), engine_out.end(), plan.result->begin(),
                  [](const T& a, const T& b) { return same_elem(a, b); }))
    rec.fail("replayed output differs from the engine's");
}

bool Workload::call_sort(OpRecord& rec, const std::vector<Key>& input,
                         const sort::MergeConfig& cfg, Tracer& tracer, std::vector<Key>& data,
                         sort::SortReport& rep) {
  data = input;
  if (!call(rec, tracer, [&] { rep = engine_->sort(data, cfg); })) return false;
  take_report(rec, rep, *launcher_);
  rec.passes = rep.passes;
  if (!sort_ok(data, input)) rec.fail("output differs from std::sort");
  return true;
}

void Workload::replay_sort(OpRecord& rec, Tracer& tracer, const std::vector<Key>& data,
                           const std::vector<Key>& input, const sort::MergeConfig& cfg) {
  replay_plan<sort::detail::SortPlanT<Key>>(rec, tracer, data, input, certified(cfg));
}

OpRecord Workload::do_sort(std::int64_t id, const std::vector<Key>& input,
                           const sort::MergeConfig& cfg, Tracer& tracer) {
  OpRecord rec = start(id, "sort", static_cast<std::int64_t>(input.size()), cfg.tile());
  std::vector<Key> data;
  sort::SortReport rep;
  if (call_sort(rec, input, cfg, tracer, data, rep) && tracer.on())
    replay_sort(rec, tracer, data, input, cfg);
  return rec;
}

OpRecord Workload::do_multiway(std::int64_t id, const std::vector<Key>& input,
                               const sort::MultiwayConfig& cfg, Tracer& tracer) {
  OpRecord rec = start(id, "sort_multiway", static_cast<std::int64_t>(input.size()), cfg.tile());
  std::vector<Key> data = input;
  sort::SortReport rep;
  if (!call(rec, tracer, [&] { rep = engine_->sort_multiway(data, cfg); })) return rec;
  take_report(rec, rep, *launcher_);
  rec.passes = rep.passes;
  if (!sort_ok(data, input)) rec.fail("output differs from std::sort");
  if (tracer.on())
    replay_plan<sort::detail::MultiwayPlanT<Key>>(rec, tracer, data, input, certified(cfg),
                                                  launcher_->device().warp_size);
  return rec;
}

OpRecord Workload::do_by_key(std::int64_t id, const std::vector<Key>& keys,
                             const std::vector<Key>& values, const sort::MergeConfig& cfg,
                             Tracer& tracer) {
  OpRecord rec = start(id, "sort_by_key", static_cast<std::int64_t>(keys.size()), cfg.tile());
  std::vector<Key> k = keys, v = values;
  sort::SortReport rep;
  if (!call(rec, tracer, [&] { rep = engine_->sort_by_key(k, v, cfg); })) return rec;
  take_report(rec, rep, *launcher_);
  rec.passes = rep.passes;
  if (!by_key_ok(k, v, keys, values)) rec.fail("keys unsorted or (key, value) multiset changed");
  if (tracer.on()) {
    std::vector<Pair> in(keys.size()), out(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      in[i] = {keys[i], values[i]};
      out[i] = {k[i], v[i]};
    }
    replay_plan<sort::detail::SortPlanT<Pair>>(rec, tracer, out, in, certified(cfg));
  }
  return rec;
}

OpRecord Workload::do_segmented(std::int64_t id, const std::vector<std::vector<Key>>& input,
                                const sort::MergeConfig& cfg, Tracer& tracer) {
  std::int64_t n = 0, np = 0;
  for (const auto& s : input) {
    n += static_cast<std::int64_t>(s.size());
    np += padded(static_cast<std::int64_t>(s.size()), cfg.tile());
  }
  OpRecord rec = start(id, "segmented_sort", n, 1);
  rec.n_padded = np;
  std::vector<std::vector<Key>> data = input;
  sort::SegmentedSortReport rep;
  if (!call(rec, tracer, [&] { rep = engine_->segmented_sort(data, cfg); })) return rec;
  take_report(rec, rep, *launcher_);
  double passes = 0.0;
  for (const auto& s : rep.per_segment) passes += s.passes;
  rec.passes =
      rep.per_segment.empty() ? 0.0 : passes / static_cast<double>(rep.per_segment.size());
  for (std::size_t s = 0; s < input.size(); ++s)
    if (!sort_ok(data[s], input[s]))
      rec.fail("segment " + std::to_string(s) + " differs from std::sort");
  if (tracer.on()) {
    // One plan per non-empty segment, replayed in segment order — the
    // order the engine instantiates them into its batch graph.
    auto span = tracer.scope("replay", id);
    const sort::MergeConfig c = certified(cfg);
    std::size_t k = 0;
    for (std::size_t s = 0; s < input.size(); ++s) {
      if (input[s].empty()) continue;
      auto& plan = replay_plan_for<sort::detail::SortPlanT<Key>>(
          tracer, id, c, padded(static_cast<std::int64_t>(input[s].size()), c.tile()));
      {
        auto ls = tracer.scope("replay.load", id);
        plan.load(input[s]);
      }
      replay_nodes(plan.graph, tracer, rec, k);
      if (!std::equal(data[s].begin(), data[s].end(), plan.result->begin()))
        rec.fail("replayed segment output differs from the engine's");
    }
    if (k != rec.kernels.size()) rec.fail("replay launched a different kernel count");
  }
  return rec;
}

namespace {

// ---------------------------------------------------------------------------
// cf_random: the paper's pipeline on its typical input.  Ops alternate the
// 2-way CF sort (E=15, u=512) and the k=4 CF cascade (E=15, u=256).
//
// The two 2^17-element workloads keep the simulator's working set near 8 MiB.
// At the paper's 2^20 (33 MiB), on a shared 4-core Xeon VM, host time
// followed other tenants' use of the last-level cache: the same op swung
// 650-1050 ms over minutes, and ten seeds spread up to 25%.  See RUNBOOK.md,
// "Measured spread".

class CfRandom final : public Workload {
 public:
  explicit CfRandom(std::uint64_t seed) : Workload(seed, 1, {15}) {
    mw_.e = 15;
    mw_.u = 256;
    mw_.k = 4;
    mw_.variant = sort::MultiwayVariant::CFCascade;
  }
  [[nodiscard]] int cycle() const override { return 2; }
  [[nodiscard]] int sim_ops() const override { return 8; }
  [[nodiscard]] std::string describe() const override {
    return "uniform int32, n=2^17; sort (CF, E=15, u=512) / sort_multiway (k=4 cascade, "
           "E=15, u=256) alternating";
  }
  std::vector<OpRecord> setup(Tracer& tracer) override {
    rebuild(tracer);
    return {op(-1, 0, tracer), op(-2, 1, tracer)};
  }
  OpRecord run(std::int64_t id, Tracer& tracer) override { return op(id, id % 2, tracer); }

 private:
  OpRecord op(std::int64_t id, std::int64_t kind, Tracer& tracer) {
    auto r = rng(id);
    const std::vector<Key> input = random_keys(kN, r);
    return kind == 0 ? do_sort(id, input, merge_cfg(15, 512, sort::Variant::CFMerge), tracer)
                     : do_multiway(id, input, mw_, tracer);
  }

  static constexpr std::int64_t kN = std::int64_t{1} << 17;
  sort::MultiwayConfig mw_;
};

// ---------------------------------------------------------------------------
// baseline_worstcase: the Baseline variant on the Section 4 adversarial
// permutation, 16 tiles of (E=15, u=512); the leaf shuffle seed varies per
// op.  The input is exactly what `cfsort --dist=worst-case --seed=S` builds.

class BaselineWorstcase final : public Workload {
 public:
  explicit BaselineWorstcase(std::uint64_t seed) : Workload(seed, 1, {15}) {}
  [[nodiscard]] int cycle() const override { return 1; }
  [[nodiscard]] int sim_ops() const override { return 8; }
  [[nodiscard]] std::string describe() const override {
    return "worst_case_sort_input, n=122880 (16 tiles); sort (Baseline, E=15, u=512)";
  }
  std::vector<OpRecord> setup(Tracer& tracer) override {
    rebuild(tracer);
    return {run(-1, tracer)};
  }
  OpRecord run(std::int64_t id, Tracer& tracer) override {
    workloads::WorkloadSpec spec;
    spec.dist = workloads::Distribution::WorstCase;
    spec.n = kN;
    spec.seed = op_seed(seed_, id);
    spec.w = launcher_->device().warp_size;
    spec.e = 15;
    spec.u = 512;
    const std::vector<Key> input = workloads::generate(spec);
    return do_sort(id, input, merge_cfg(15, 512, sort::Variant::Baseline), tracer);
  }

 private:
  static constexpr std::int64_t kN = 122880;
};

// ---------------------------------------------------------------------------
// ragged_requests: many small requests of log-uniform length in [1K, 64K],
// never a tile multiple.  Ops rotate the paper's two parameter sets
// (15, 512) / (17, 256) and the entry points sort / sort_by_key /
// segmented_sort; half the requests draw keys from a 16-value set holding
// INT_MIN and INT_MAX.

class RaggedRequests final : public Workload {
 public:
  explicit RaggedRequests(std::uint64_t seed) : Workload(seed, 1, {15, 17}) {}
  [[nodiscard]] int cycle() const override { return 6; }
  [[nodiscard]] int sim_ops() const override { return 1500; }
  [[nodiscard]] std::string describe() const override {
    return "log-uniform n in [1024, 65536], never a tile multiple; (E,u) in {(15,512), "
           "(17,256)} x {sort, sort_by_key, segmented_sort of 2-4 segments}; half the "
           "requests tie on a 16-value key set with INT_MIN/INT_MAX";
  }

  std::vector<OpRecord> setup(Tracer& tracer) override {
    rebuild(tracer);
    // One sort and one sort_by_key per (config, padded length): every plan
    // key a timed request can need.  Segmented batches reuse the int32
    // sort plans (a batch with two equal padded lengths needs a second
    // instance; that miss is engine behaviour and stays measured).
    std::vector<OpRecord> warm;
    std::int64_t id = -1;
    for (const sort::MergeConfig& cfg : configs()) {
      const std::int64_t tiles = (kMaxN + cfg.tile() - 1) / cfg.tile();
      for (std::int64_t t = 1; t <= tiles; ++t, --id) {
        auto r = rng(id);
        const std::vector<Key> keys = random_keys(t * cfg.tile() - 1, r);
        warm.push_back(do_sort(id, keys, cfg, tracer));
        warm.push_back(do_by_key(id, keys, iota(keys.size()), cfg, tracer));
      }
    }
    return warm;
  }

  OpRecord run(std::int64_t id, Tracer& tracer) override {
    const sort::MergeConfig cfg = configs()[static_cast<std::size_t>(id % 2)];
    const std::int64_t kind = (id / 2) % 3;
    auto r = rng(id);
    const double lg = std::uniform_real_distribution<double>(std::log(double(kMinN)),
                                                             std::log(double(kMaxN)))(r);
    std::int64_t n = std::llround(std::exp(lg));
    if (n % cfg.tile() == 0) --n;
    const bool tied = (r() & 1) != 0;
    std::vector<Key> keys(static_cast<std::size_t>(n));
    for (Key& k : keys) k = tied ? kTiedKeys[r() % kTiedKeys.size()] : static_cast<Key>(r());
    if (kind == 0) return do_sort(id, keys, cfg, tracer);
    if (kind == 1) return do_by_key(id, keys, iota(keys.size()), cfg, tracer);
    // 2-4 segments cut at distinct random points of the request.
    const std::size_t parts = 2 + r() % 3;
    std::vector<std::int64_t> cuts{0, n};
    while (cuts.size() < parts + 1) {
      const std::int64_t c = 1 + static_cast<std::int64_t>(r() % static_cast<std::uint64_t>(n - 1));
      if (std::find(cuts.begin(), cuts.end(), c) == cuts.end()) cuts.push_back(c);
    }
    std::sort(cuts.begin(), cuts.end());
    std::vector<std::vector<Key>> segs;
    for (std::size_t s = 0; s + 1 < cuts.size(); ++s)
      segs.emplace_back(keys.begin() + cuts[s], keys.begin() + cuts[s + 1]);
    return do_segmented(id, segs, cfg, tracer);
  }

 private:
  static std::vector<sort::MergeConfig> configs() {
    return {merge_cfg(15, 512, sort::Variant::CFMerge), merge_cfg(17, 256, sort::Variant::CFMerge)};
  }
  static std::vector<Key> iota(std::size_t n) {
    std::vector<Key> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<Key>(i);
    return v;
  }

  static constexpr std::int64_t kMinN = 1024;
  static constexpr std::int64_t kMaxN = 65536;
  static constexpr std::array<Key, 16> kTiedKeys{
      INT_MIN, INT_MIN + 1, -65536, -1000, -2, -1, 0, 1,
      2,       7,           42,     1000,  65535, 1 << 30, INT_MAX - 1, INT_MAX};
};

// ---------------------------------------------------------------------------
// instrumented: CF sorts of random n=2^16 on two block-executor workers.
// Ops rotate a full ShadowChecker audit, a certified-skip audit and an
// attached TraceSink; each is checked bit for bit against an untimed plain
// run of the same input on a separate launcher.

class Instrumented final : public Workload {
 public:
  explicit Instrumented(std::uint64_t seed) : Workload(seed, 2, {15}) {}
  [[nodiscard]] int cycle() const override { return 3; }
  [[nodiscard]] int sim_ops() const override { return 6; }
  [[nodiscard]] std::string describe() const override {
    return "uniform int32, n=2^16; sort (CF, E=15, u=512) under audit_full / audit_skip / "
           "trace, rotating; 2 block-executor workers";
  }
  std::vector<OpRecord> setup(Tracer& tracer) override {
    rebuild(tracer);
    plain_engine_.reset();
    plain_launcher_ = std::make_unique<gpusim::Launcher>(bench_device());
    plain_launcher_->set_threads(workers_);
    plain_engine_ = std::make_unique<sort::SortEngine>(*plain_launcher_);
    // Every mode runs the same plan on both engines: one warm-up op builds
    // them all.
    return {op(-1, 1, tracer)};
  }
  OpRecord run(std::int64_t id, Tracer& tracer) override { return op(id, id % 3, tracer); }

 private:
  OpRecord op(std::int64_t id, std::int64_t mode, Tracer& tracer) {
    auto r = rng(id);
    const std::vector<Key> input = random_keys(kN, r);
    const sort::MergeConfig cfg = merge_cfg(15, 512, sort::Variant::CFMerge);

    // The plain reference: outside the op's timed span (a span of its own
    // in traced runs, so audit/trace cost can be taken against it).
    std::vector<Key> ref = input;
    sort::SortReport plain;
    double plain_ms = 0.0;
    {
      auto span = tracer.scope("sort.sort.plain", id);
      plain = plain_engine_->sort(ref, cfg);
      plain_ms = span.stop();
    }

    verify::ShadowChecker shadow, replay_shadow;
    gpusim::TraceSink sink, replay_sink;
    const bool audited = mode != 2;
    if (audited) {
      launcher_->set_audit(&shadow);
      launcher_->set_audit_skip(mode == 1);
    } else {
      launcher_->set_trace(&sink);
    }
    struct Detach {
      gpusim::Launcher& l;
      ~Detach() {
        l.set_audit(nullptr);
        l.set_audit_skip(false);
        l.set_trace(nullptr);
      }
    } detach{*launcher_};

    OpRecord rec = start(id, "sort", kN, cfg.tile());
    std::vector<Key> data;
    sort::SortReport rep;
    if (!call_sort(rec, input, cfg, tracer, data, rep)) return rec;
    rec.plain_ms = plain_ms;
    if (!same_report(rep, plain)) rec.fail("report differs from the plain run");
    if (audited) {
      rec.mode = mode == 0 ? "audit_full" : "audit_skip";
      const verify::ShadowSummary sum = shadow.summary();
      rec.audit_skipped = launcher_->audit_skipped_accesses();
      rec.violations = sum.violations.size() + sum.dropped_violations;
      if (!sum.clean()) rec.fail("shadow checker reported violations");
      if ((mode == 1) != (rec.audit_skipped > 0))
        rec.fail("audit_skipped_accesses does not match the audit mode");
      launcher_->set_audit(&replay_shadow);
    } else {
      rec.mode = "trace";
      rec.trace_events = sink.size();
      if (sink.size() == 0) rec.fail("trace sink recorded nothing");
      launcher_->set_trace(&replay_sink);
    }
    // The replay runs under fresh instrumentation of the same kind, so the
    // engine call's audit / trace state read above is its own.
    if (tracer.on()) replay_sort(rec, tracer, data, input, cfg);
    if (!sort_ok(ref, input)) rec.fail("plain reference run differs from std::sort");
    return rec;
  }

  static constexpr std::int64_t kN = std::int64_t{1} << 16;
  std::unique_ptr<gpusim::Launcher> plain_launcher_;
  std::unique_ptr<sort::SortEngine> plain_engine_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "cf_random") return std::make_unique<CfRandom>(seed);
  if (name == "baseline_worstcase") return std::make_unique<BaselineWorstcase>(seed);
  if (name == "ragged_requests") return std::make_unique<RaggedRequests>(seed);
  if (name == "instrumented") return std::make_unique<Instrumented>(seed);
  return nullptr;
}

std::uint64_t op_seed(std::uint64_t seed, std::int64_t id) {
  return splitmix64(seed ^ splitmix64(static_cast<std::uint64_t>(id)));
}

}  // namespace perfbench
