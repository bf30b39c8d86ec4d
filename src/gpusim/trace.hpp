// Access tracing: records every warp-wide memory operation a kernel issues,
// for post-hoc analysis the live counters cannot do —
//  * replaying shared accesses under alternative bank mappings
//    (dmm::ModuleMap) to answer "what if this GPU hashed its banks?",
//  * per-warp / per-phase conflict attribution,
//  * exporting raw traces (CSV) for external tooling.
//
// Tracing is off by default (the simulator stays fast); attach a TraceSink
// to a Launcher and every BlockContext it creates records into it.
//
// Storage: one flat event index plus lane-address *segments*.  Recording
// appends to the sink's last segment; merge_from(TraceSink&&) takes over
// the other sink's segments whole, so the launcher's block-ordered commit
// of per-block sinks moves address buffers instead of copying them.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace cfmerge::gpusim {

enum class AccessKind : std::uint8_t { SharedRead = 0, SharedWrite, GlobalRead, GlobalWrite };

/// One warp-wide access.  Addresses are element indices for shared
/// accesses and byte addresses for global ones; kInactiveLane (-1) marks
/// idle lanes.
struct TraceEvent {
  std::int32_t block = 0;
  std::int16_t warp = 0;
  AccessKind kind = AccessKind::SharedRead;
  std::int16_t phase_id = 0;     ///< index into TraceSink::phase_names()
  std::uint16_t lanes = 0;       ///< number of lanes recorded
  std::int32_t cost = 0;         ///< conflicts (shared) or transactions (global)
  std::uint32_t segment = 0;     ///< address segment holding the lane addresses
  std::uint32_t first_addr = 0;  ///< offset of the lane addresses in that segment
};

class TraceSink {
 public:
  void record(std::int32_t block, std::int16_t warp, AccessKind kind,
              std::string_view phase, std::span<const std::int64_t> addrs, int cost);

  /// Hot-path variant: `phase` is an id previously returned by
  /// `intern_phase` on *this* sink.  Skips the per-record name lookup —
  /// BlockContext interns once per phase switch and records by id.
  void record(std::int32_t block, std::int16_t warp, AccessKind kind,
              std::int16_t phase, std::span<const std::int64_t> addrs, int cost);

  /// Id of `phase` in phase_names(), appending it on first use.
  std::int16_t intern_phase(std::string_view phase) { return phase_id(phase); }

  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }
  [[nodiscard]] const std::vector<std::string>& phase_names() const { return phases_; }
  [[nodiscard]] std::span<const std::int64_t> addresses(const TraceEvent& e) const {
    return std::span<const std::int64_t>(segments_[e.segment]).subspan(e.first_addr, e.lanes);
  }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  void clear();

  /// Appends every event of `other` (another sink), remapping phase ids,
  /// and takes ownership of its address segments (no address is copied);
  /// `other` is left empty.  Spans from addresses() stay valid across the
  /// merge, for events of either sink.  Used by the parallel launcher to
  /// commit per-block sinks in block order; the result is identical to
  /// recording the same accesses directly in that order.
  void merge_from(TraceSink&& other);

  /// Total recorded conflicts in shared accesses of a phase ("" = all).
  [[nodiscard]] std::int64_t shared_conflicts(std::string_view phase = {}) const;

  /// CSV export: block,warp,kind,phase,cost,addr0,addr1,...
  void write_csv(std::ostream& os) const;

 private:
  std::int16_t phase_id(std::string_view phase);

  std::vector<TraceEvent> events_;
  std::vector<std::vector<std::int64_t>> segments_;
  std::vector<std::string> phases_;
};

}  // namespace cfmerge::gpusim
