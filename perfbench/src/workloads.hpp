// The benchmark's workloads.  Each is a closed loop with one caller driving
// one SortEngine on one Launcher; inputs come from the seed and are
// generated outside every timed span.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "gpusim/launcher.hpp"
#include "sort/engine.hpp"
#include "stats.hpp"

namespace perfbench {

/// One replayed Launcher::launch of a traced op.
struct Launch {
  std::string kernel;
  double ms = 0.0;
  std::uint64_t shared_accesses = 0;
};

/// Everything the benchmark keeps about one op.
struct OpRecord {
  std::int64_t id = 0;
  std::string entry;  ///< SortEngine entry point: sort, sort_multiway, ...
  std::string mode;   ///< instrumented only: audit_full, audit_skip, trace
  std::int64_t n = 0;
  std::int64_t n_padded = 0;
  double host_ms = 0.0;   ///< wall time of the engine call
  double sim_us = 0.0;    ///< simulated makespan
  double passes = 0.0;    ///< merge passes (mean over segments for a batch)
  cfmerge::gpusim::Counters totals;
  /// The engine's per-kernel reports.  The main loop keeps them only for
  /// the simulated-metric prefix, so the benchmark's own memory does not
  /// grow with the op count.
  std::vector<cfmerge::gpusim::KernelReport> kernels;
  std::uint64_t bulk_charges = 0;
  std::uint64_t lane_charges = 0;
  std::uint64_t cert_hits = 0;  ///< certificate lookups made by the engine call
  // Instrumented ops: the untimed plain reference run and what the
  // instrumentation observed.
  double plain_ms = 0.0;  ///< wall time of the plain reference run
  std::uint64_t audit_skipped = 0;
  std::uint64_t violations = 0;
  std::uint64_t trace_events = 0;
  // Traced runs: one replayed Launcher::launch per kernel.
  std::vector<Launch> launches;
  bool failed = false;
  std::string why;  ///< every failure reason, "; "-separated

  void fail(const std::string& reason) {
    why += (failed ? "; " : "") + reason;
    failed = true;
  }
};

/// Launcher, engine and the four engine calls every workload is built from.
/// Each call times the engine under a "sort.<entry>" span and checks the
/// output against std::sort; when tracing, the input is then replayed
/// through the engine's own plan types, one span per kernel launch, and the
/// replayed reports must equal the engine's.
class Workload {
 public:
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  Workload(Workload&&) = delete;
  Workload& operator=(Workload&&) = delete;

  [[nodiscard]] int workers() const { return workers_; }
  /// Ops per rotation: a run only stops at a rotation boundary, so every
  /// op kind is equally represented.
  [[nodiscard]] virtual int cycle() const = 0;
  /// Every run completes at least this many ops; simulated metrics are
  /// taken over exactly these first ops so they repeat for a fixed seed.
  [[nodiscard]] virtual int sim_ops() const = 0;
  /// A human-readable description of the op mix (for the report).
  [[nodiscard]] virtual std::string describe() const = 0;

  /// Builds a fresh launcher and engine, resolves certificates (span
  /// "verify.certify", its duration in certify_ms()) and runs the warm-up
  /// ops that build every plan the timed ops use.  May be called
  /// repeatedly; each call starts over.  Returns the warm-up ops (checked
  /// like any other op).
  virtual std::vector<OpRecord> setup(Tracer& tracer) = 0;

  /// Runs op `id`.
  virtual OpRecord run(std::int64_t id, Tracer& tracer) = 0;

  [[nodiscard]] cfmerge::sort::EngineStats engine_stats() const { return engine_->stats(); }
  /// Duration of the last set-up's certificate resolution.
  [[nodiscard]] double certify_ms() const { return certify_ms_; }

 protected:
  using Key = std::int32_t;

  Workload(std::uint64_t seed, int workers, std::vector<int> es)
      : seed_(seed), workers_(workers), es_(std::move(es)) {}

  /// Fresh launcher + engine, then certificate resolution for every E the
  /// workload uses (memoized process-wide: only the first set-up proves).
  void rebuild(Tracer& tracer);

  [[nodiscard]] std::mt19937_64 rng(std::int64_t id) const;

  /// The engine call alone: times it, checks the output.  `data` and `rep`
  /// receive the engine's output and report.  Returns false when the call
  /// threw.
  bool call_sort(OpRecord& rec, const std::vector<Key>& input,
                 const cfmerge::sort::MergeConfig& cfg, Tracer& tracer, std::vector<Key>& data,
                 cfmerge::sort::SortReport& rep);
  /// The traced replay of a call_sort op.
  void replay_sort(OpRecord& rec, Tracer& tracer, const std::vector<Key>& data,
                   const std::vector<Key>& input, const cfmerge::sort::MergeConfig& cfg);

  /// call_sort followed, when tracing, by replay_sort.
  OpRecord do_sort(std::int64_t id, const std::vector<Key>& input,
                   const cfmerge::sort::MergeConfig& cfg, Tracer& tracer);
  OpRecord do_multiway(std::int64_t id, const std::vector<Key>& input,
                       const cfmerge::sort::MultiwayConfig& cfg, Tracer& tracer);
  OpRecord do_by_key(std::int64_t id, const std::vector<Key>& keys,
                     const std::vector<Key>& values, const cfmerge::sort::MergeConfig& cfg,
                     Tracer& tracer);
  OpRecord do_segmented(std::int64_t id, const std::vector<std::vector<Key>>& input,
                        const cfmerge::sort::MergeConfig& cfg, Tracer& tracer);

  std::uint64_t seed_;
  int workers_;
  std::vector<int> es_;
  std::unique_ptr<cfmerge::gpusim::Launcher> launcher_;
  std::unique_ptr<cfmerge::sort::SortEngine> engine_;

 private:
  template <typename Fn>
  bool call(OpRecord& rec, Tracer& tracer, Fn&& fn);
  template <typename Cfg>
  [[nodiscard]] Cfg certified(Cfg cfg) const;
  template <typename Plan, typename Cfg, typename... Extra>
  Plan& replay_plan_for(Tracer& tracer, std::int64_t id, const Cfg& certified,
                        std::int64_t n_padded, Extra... extra);
  template <typename Plan, typename T, typename Cfg, typename... Extra>
  void replay_plan(OpRecord& rec, Tracer& tracer, const std::vector<T>& engine_out,
                   const std::vector<T>& input, const Cfg& certified, Extra... extra);
  void replay_nodes(const cfmerge::gpusim::KernelGraph& graph, Tracer& tracer, OpRecord& rec,
                    std::size_t& k);

  double certify_ms_ = 0.0;
  std::map<std::string, std::shared_ptr<void>> replay_plans_;
};

/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

/// Seed of op `id`'s input (SplitMix64 of the run seed and the op id).
[[nodiscard]] std::uint64_t op_seed(std::uint64_t seed, std::int64_t id);

}  // namespace perfbench
