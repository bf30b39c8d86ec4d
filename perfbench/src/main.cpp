// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--ops N] [--spans FILE]
//
// Runs one workload (see workloads.hpp) as a closed loop for S seconds of
// wall clock, checks every op's output against std::sort, and prints a
// human-readable report followed, as the last line of stdout, by one JSON
// object {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
// the end-to-end metrics; --trace 1 is the separate traced run: spans
// around every SortEngine call, every replayed Launcher::launch and the
// certificate resolution, and the per-layer metrics derived from them and
// from the reports the library returns.  --ops N runs exactly N ops
// instead of a timed loop (tests and cross-checks).  --spans FILE writes
// the traced run's spans as JSON lines.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "verify/certificate.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;
namespace gpusim = cfmerge::gpusim;

namespace {

/// Warm set-ups per run, after the first (cold) one.  setup_s is the cold
/// set-up's certificate resolution plus the median of the warm set-ups'
/// remaining work.
constexpr int kWarmSetups = 9;

const std::vector<std::string> kEntries{"sort", "sort_multiway", "sort_by_key",
                                        "segmented_sort"};
const std::vector<std::string> kKernels{"block_sort", "merge_partition", "merge_pass",
                                        "multiway_partition", "multiway_merge"};
/// The kernels that touch shared memory (the partition kernels do not).
const std::vector<std::string> kSharedKernels{"block_sort", "merge_pass", "multiway_merge"};
const std::vector<std::string> kPhases{"merge.merge", "merge.search", "bsort.search",
                                       "bsort.merge"};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::int64_t ops = 0;
  std::string spans;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--ops N] [--spans FILE]\n",
               why);
  return 2;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double sum_of(const std::vector<OpRecord>& ops, double (*f)(const OpRecord&)) {
  double s = 0.0;
  for (const OpRecord& r : ops) s += f(r);
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Engine host time not spent in kernels: the engine span minus the
/// replayed kernel spans of the same input.
double overhead_ms(const OpRecord& r) {
  double k = 0.0;
  for (const Launch& l : r.launches) k += l.ms;
  return r.host_ms - k;
}

/// Median over rotations of the rotation's mean op time.  A rotation runs
/// every op kind of the workload once, so a workload mixing kinds of
/// different cost has no median that falls in the gap between them; with
/// one kind per rotation this is the median op time.
double rotation_median_ms(const std::vector<OpRecord>& timed, int cycle) {
  std::vector<double> rot;
  for (std::size_t i = 0; i + static_cast<std::size_t>(cycle) <= timed.size();
       i += static_cast<std::size_t>(cycle)) {
    double ms = 0.0;
    for (int k = 0; k < cycle; ++k) ms += timed[i + static_cast<std::size_t>(k)].host_ms;
    rot.push_back(ms / cycle);
  }
  return median(rot);
}

double elems(const OpRecord& r) { return double(r.n); }
double engine_ms(const OpRecord& r) { return r.host_ms; }

/// Peak resident set of this program.  VmHWM belongs to the address space
/// exec created; getrusage's ru_maxrss also keeps the peak of the process
/// image before exec (the Python launcher's, larger than a 2^17 workload's).
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::vector<Metric> end_to_end(const std::vector<OpRecord>& timed,
                               const std::vector<OpRecord>& prefix, int cycle, double setup_s,
                               const Tail& t) {
  std::int64_t failed = 0;
  for (const OpRecord& r : timed) failed += r.failed ? 1 : 0;
  const double n = sum_of(timed, elems);
  return {
      {"host_elem_per_s", ratio(n, sum_of(timed, engine_ms) / 1e3), "elem/s"},
      {"op_ms_p50", rotation_median_ms(timed, cycle), "ms"},
      {"op_ms_tail", t.value, "ms"},
      {"sim_elem_per_us",
       ratio(sum_of(prefix, elems),
             sum_of(prefix, [](const OpRecord& r) { return r.sim_us; })),
       "elem/us"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
      {"ok_op_frac", 1.0 - ratio(double(failed), double(timed.size())), "ratio"},
  };
}

std::vector<Metric> per_layer(const std::vector<OpRecord>& timed,
                              const std::vector<OpRecord>& prefix, int cycle,
                              const cfmerge::sort::EngineStats& before,
                              const cfmerge::sort::EngineStats& after, double certify_ms,
                              double cert_misses, std::uint64_t violations) {
  std::vector<Metric> m;
  const double ops = static_cast<double>(timed.size());

  // sort: engine spans, plan cache, padding.
  for (const std::string& e : kEntries) {
    std::vector<double> ms;
    for (const OpRecord& r : timed)
      if (r.entry == e) ms.push_back(r.host_ms);
    m.push_back({"sort.call_ms." + e, median(ms), "ms"});
  }
  const double hits = double(after.plan_hits - before.plan_hits);
  const double misses = double(after.plan_misses - before.plan_misses);
  m.push_back({"sort.plan_hit_rate", ratio(hits, hits + misses), "ratio"});
  m.push_back({"sort.plan_misses", ratio(misses, ops), "1/op"});
  m.push_back({"sort.plan_bytes", double(after.plan_bytes), "B"});
  m.push_back({"sort.arena_reuses", ratio(double(after.arena_reuses - before.arena_reuses), ops), "1/op"});
  const double np = sum_of(timed, [](const OpRecord& r) { return double(r.n_padded); });
  const double n = sum_of(timed, elems);
  m.push_back({"sort.pad_frac", ratio(np - n, np), "ratio"});

  // gpusim, host side: replayed launch spans per kernel, charging tiers,
  // trace recording.
  for (const std::string& k : kKernels) {
    double ms = 0.0, launches = 0.0, accesses = 0.0;
    for (const OpRecord& r : timed)
      for (const Launch& l : r.launches)
        if (l.kernel == k) {
          ms += l.ms;
          launches += 1.0;
          accesses += double(l.shared_accesses);
        }
    m.push_back({"gpusim.launch_ms." + k, ratio(ms, launches), "ms"});
    if (std::find(kSharedKernels.begin(), kSharedKernels.end(), k) != kSharedKernels.end())
      m.push_back({"gpusim.ns_per_shared_access." + k, ratio(ms * 1e6, accesses), "ns"});
  }
  const double bulk = sum_of(prefix, [](const OpRecord& r) { return double(r.bulk_charges); });
  const double lane = sum_of(prefix, [](const OpRecord& r) { return double(r.lane_charges); });
  const double pops = static_cast<double>(prefix.size());
  m.push_back({"gpusim.bulk_charges", ratio(bulk, pops), "1/op"});
  m.push_back({"gpusim.lane_charges", ratio(lane, pops), "1/op"});
  m.push_back({"gpusim.bulk_rate", ratio(bulk, bulk + lane), "ratio"});
  double events = 0.0, traced = 0.0;
  for (const OpRecord& r : prefix)
    if (r.mode == "trace") {
      events += double(r.trace_events);
      traced += 1.0;
    }
  m.push_back({"gpusim.trace_events", ratio(events, traced), "1/op"});
  const auto extra_ms = [&](const std::string& mode) {
    std::vector<double> d;
    for (const OpRecord& r : timed)
      if (r.mode == mode) d.push_back(r.host_ms - r.plain_ms);
    return median(d);
  };
  m.push_back({"gpusim.trace_ms", extra_ms("trace"), "ms"});

  // gpusim, simulated side: from the engine's reports over the
  // deterministic op prefix.
  const double pn = sum_of(prefix, elems);
  for (const std::string& p : kPhases) {
    double conflicts = 0.0;
    for (const OpRecord& r : prefix)
      for (const gpusim::KernelReport& k : r.kernels)
        for (const auto& [name, c] : k.counters.phases())
          if (name == p) conflicts += double(c.bank_conflicts);
    m.push_back({"gpusim.model." + p + ".conflicts_per_elem", ratio(conflicts, pn), "1/elem"});
  }
  for (const std::string& kn : kKernels) {
    double compute = 0.0, shared = 0.0, bw = 0.0, latency = 0.0, bps = 0.0, launches = 0.0;
    for (const OpRecord& r : prefix)
      for (const gpusim::KernelReport& k : r.kernels)
        if (k.name == kn) {
          compute += k.timing.compute_bound;
          shared += k.timing.shared_bound;
          bw += k.timing.bw_bound;
          latency += k.timing.latency_bound;
          bps += k.timing.occupancy.blocks_per_sm;
          launches += 1.0;
        }
    const std::string base = "gpusim.model." + kn;
    m.push_back({base + ".cycles_compute", ratio(compute, pops), "cycles/op"});
    if (std::find(kSharedKernels.begin(), kSharedKernels.end(), kn) != kSharedKernels.end())
      m.push_back({base + ".cycles_shared", ratio(shared, pops), "cycles/op"});
    m.push_back({base + ".cycles_bw", ratio(bw, pops), "cycles/op"});
    m.push_back({base + ".cycles_latency", ratio(latency, pops), "cycles/op"});
    m.push_back({base + ".blocks_per_sm", ratio(bps, launches), "blocks"});
  }
  m.push_back({"gpusim.model.passes", ratio(sum_of(prefix, [](const OpRecord& r) { return r.passes; }), pops), "1/op"});
  m.push_back({"gpusim.model.gmem_bytes_per_elem",
               ratio(sum_of(prefix, [](const OpRecord& r) { return double(r.totals.gmem_bytes); }), pn),
               "B/elem"});

  // verify: certificate resolution, audits.
  m.push_back({"verify.certify_ms", certify_ms, "ms"});
  m.push_back({"verify.cert_hits",
               ratio(sum_of(timed, [](const OpRecord& r) { return double(r.cert_hits); }), ops),
               "1/call"});
  m.push_back({"verify.cert_misses", cert_misses, "count"});
  m.push_back({"verify.audit_full_ms", extra_ms("audit_full"), "ms"});
  m.push_back({"verify.audit_skip_ms", extra_ms("audit_skip"), "ms"});
  double skipped = 0.0, skip_ops = 0.0;
  for (const OpRecord& r : prefix)
    if (r.mode == "audit_skip") {
      skipped += double(r.audit_skipped);
      skip_ops += 1.0;
    }
  m.push_back({"verify.audit_skipped_accesses", ratio(skipped, skip_ops), "1/op"});
  m.push_back({"verify.violations", double(violations), "count"});

  // The traced run's own end-to-end view: its op_ms_p50 against the
  // untraced run's is the tracing overhead.
  m.push_back({"trace.op_ms_p50", rotation_median_ms(timed, cycle), "ms"});
  return m;
}

void write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<double>& self) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "{\"id\": %zu, \"name\": \"%s\", \"start_ms\": %.6f, \"end_ms\": %.6f, "
                  "\"parent\": %d, \"op\": %lld, \"self_ms\": %.6f}\n",
                  i, s.name.c_str(), s.start_ms, s.end_ms, s.parent,
                  static_cast<long long>(s.op), self[i]);
    f << buf;
  }
}

/// Per span name: count, total and self time — where the traced run's host
/// time went, attributed by module prefix (sort., gpusim., verify.).
void print_attribution(const std::vector<Span>& spans, const std::vector<double>& self) {
  struct Row {
    std::size_t count = 0;
    double total = 0.0, self = 0.0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Row& r = rows[spans[i].name];
    ++r.count;
    r.total += spans[i].ms();
    r.self += self[i];
  }
  std::printf("\nspans (traced run): name, count, total ms, self ms\n");
  for (const auto& [name, r] : rows)
    std::printf("  %-36s %7zu %12.3f %12.3f\n", name.c_str(), r.count, r.total, r.self);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v);
      else if (flag == "--ops") a.ops = std::stoll(v);
      else if (flag == "--spans") a.spans = v;
      else return usage(("unknown flag " + flag).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + flag + ": " + v).c_str());
    }
  }
  if (a.trace != 0 && a.trace != 1) return usage("--trace must be 0 or 1");
  if (a.ops < 0 || (a.ops == 0 && a.seconds <= 0.0))
    return usage("need --seconds > 0 or --ops > 0");
  std::unique_ptr<Workload> wl = make_workload(a.workload, a.seed);
  if (!wl) return usage(("unknown workload '" + a.workload + "'").c_str());

#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "perfbench: REFUSING TO MEASURE an unoptimized build (build type '%s'); "
               "configure with -DCMAKE_BUILD_TYPE=Release\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif

  Tracer tracer(a.trace == 1);
  // Set-up: the first one is cold and runs the certificate proofs (the
  // memo is process-wide); the warm ones repeat everything after them.
  std::vector<OpRecord> warm;  // every warm-up op, checked like timed ops
  double cold_certify_ms = 0.0, cold_setup_ms = 0.0;
  double cert_misses = 0.0;
  std::vector<double> warm_ms;
  for (int k = 0; k <= kWarmSetups; ++k) {
    const std::uint64_t misses = cfmerge::verify::certificate_stats().misses;
    auto span = tracer.scope("setup");
    std::vector<OpRecord> ops = wl->setup(tracer);
    const double ms = span.stop();
    for (OpRecord& r : ops) {
      r.kernels.clear();
      warm.push_back(std::move(r));
    }
    if (k == 0) {
      cold_certify_ms = wl->certify_ms();
      cold_setup_ms = ms;
      cert_misses = double(cfmerge::verify::certificate_stats().misses - misses);
    } else {
      warm_ms.push_back(ms - wl->certify_ms());
    }
  }
  const double setup_s = (cold_certify_ms + median(warm_ms)) / 1e3;

  const cfmerge::sort::EngineStats before = wl->engine_stats();
  std::vector<OpRecord> timed;
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  for (std::int64_t id = 0;; ++id) {
    if (a.ops > 0 ? id >= a.ops
                  : id >= wl->sim_ops() && id % wl->cycle() == 0 && elapsed() >= a.seconds)
      break;
    auto span = tracer.scope("op", id);
    OpRecord r;
    try {
      r = wl->run(id, tracer);
    } catch (const std::exception& e) {
      r.id = id;
      r.fail(std::string("op threw: ") + e.what());
    }
    // Per-kernel reports are only needed for the simulated-metric prefix.
    if (id >= wl->sim_ops()) r.kernels = {};
    timed.push_back(std::move(r));
  }
  const cfmerge::sort::EngineStats after = wl->engine_stats();

  const std::size_t prefix_n =
      std::min<std::size_t>(timed.size(), static_cast<std::size_t>(wl->sim_ops()));
  const std::vector<OpRecord> prefix(timed.begin(),
                                     timed.begin() + static_cast<std::ptrdiff_t>(prefix_n));
  std::vector<double> ms;
  for (const OpRecord& r : timed) ms.push_back(r.host_ms);
  const Tail t = tail(ms);

  std::int64_t failed_warm = 0, failed_timed = 0, failed_prefix = 0;
  std::uint64_t violations = 0;
  for (const OpRecord& r : warm) {
    failed_warm += r.failed ? 1 : 0;
    violations += r.violations;
  }
  for (const OpRecord& r : timed) {
    failed_timed += r.failed ? 1 : 0;
    violations += r.violations;
  }
  for (const OpRecord& r : prefix) failed_prefix += r.failed ? 1 : 0;
  const std::int64_t failed = failed_warm + failed_timed;
  const std::size_t attempted = warm.size() + timed.size();

  // ---- human-readable report ----------------------------------------------
  std::printf("perfbench %s  seed=%llu  %s run\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.trace ? "traced" : "untraced");
  std::printf("  ops: %s\n", wl->describe().c_str());
  std::printf(
      "  provenance: build=%s, workers=%d, nproc=%u, closed loop with one caller, "
      "set-ups=1 cold + %d warm, warm-up ops=%zu, timed ops=%zu, simulated metrics over "
      "the first %zu\n",
      PERFBENCH_BUILD_TYPE, wl->workers(), std::thread::hardware_concurrency(), kWarmSetups,
      warm.size(), timed.size(), prefix_n);
  std::printf("  setup_s: cold certificate resolution %.3f ms + median warm set-up %.3f ms "
              "(cold set-up took %.3f ms in all)\n",
              cold_certify_ms, median(warm_ms), cold_setup_ms);
  std::printf("  op 0 input seed: %llu\n",
              static_cast<unsigned long long>(op_seed(a.seed, 0)));
  std::printf(
      "  note: simulated metrics come from an unvalidated timing model (the repository "
      "holds no RTX 2080 Ti reference measurements), so no error figure is given\n");
  std::printf("  op_ms_tail is p%.1f of %zu ops (%zu ops beyond it)%s\n", t.percentile,
              t.samples, t.beyond,
              t.beyond < kTailBeyond ? "  WARNING: fewer than 10 ops beyond" : "");
  std::printf("  failed_op_frac: %lld of %zu timed ops (%lld of the first %zu), %lld of %zu "
              "warm-up ops\n",
              static_cast<long long>(failed_timed), timed.size(),
              static_cast<long long>(failed_prefix), prefix_n,
              static_cast<long long>(failed_warm), warm.size());
  for (const std::vector<OpRecord>* ops : {&warm, &timed})
    for (const OpRecord& r : *ops)
      if (r.failed)
        std::printf("  FAILED op %lld (%s, n=%lld): %s\n", static_cast<long long>(r.id),
                    r.entry.c_str(), static_cast<long long>(r.n), r.why.c_str());

  const std::vector<Metric> metrics =
      a.trace ? per_layer(timed, prefix, wl->cycle(), before, after, cold_certify_ms,
                          cert_misses, violations)
              : end_to_end(timed, prefix, wl->cycle(), setup_s, t);
  std::printf("\n  %-48s %20s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics)
    std::printf("  %-48s %20.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  if (a.trace) {
    // Engine time outside kernels: the engine span minus the replayed
    // kernel spans.  It is a difference of two host times taken about a
    // replay apart, and a few ms of overhead sit inside the op-to-op noise
    // of a 100 ms sort; shown with its spread here rather than reported as
    // a metric.
    std::vector<double> d;
    for (const OpRecord& r : timed) d.push_back(overhead_ms(r));
    std::sort(d.begin(), d.end());
    if (!d.empty())
      std::printf("\n  engine overhead (engine span - replayed kernels) per op over %zu ops: "
                  "min %.3f, p25 %.3f, p75 %.3f, max %.3f ms\n",
                  d.size(), d.front(), d[d.size() / 4], d[3 * d.size() / 4], d.back());
    const std::vector<double> self = self_times(tracer.spans());
    print_attribution(tracer.spans(), self);
    if (!a.spans.empty()) write_spans(a.spans, tracer.spans(), self);
  }

  // ---- the result line -----------------------------------------------------
  std::string json = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("\n%s\n", json.c_str());
  return 0;
}
