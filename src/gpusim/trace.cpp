#include "gpusim/trace.hpp"

#include <cassert>
#include <iterator>
#include <ostream>
#include <stdexcept>

namespace cfmerge::gpusim {

namespace {
const char* kind_name(AccessKind k) {
  switch (k) {
    case AccessKind::SharedRead: return "shared_read";
    case AccessKind::SharedWrite: return "shared_write";
    case AccessKind::GlobalRead: return "global_read";
    case AccessKind::GlobalWrite: return "global_write";
  }
  return "?";
}
}  // namespace

std::int16_t TraceSink::phase_id(std::string_view phase) {
  for (std::size_t i = 0; i < phases_.size(); ++i)
    if (phases_[i] == phase) return static_cast<std::int16_t>(i);
  if (phases_.size() >= 32767) throw std::runtime_error("TraceSink: too many phases");
  phases_.emplace_back(phase);
  return static_cast<std::int16_t>(phases_.size() - 1);
}

void TraceSink::record(std::int32_t block, std::int16_t warp, AccessKind kind,
                       std::string_view phase, std::span<const std::int64_t> addrs,
                       int cost) {
  record(block, warp, kind, phase_id(phase), addrs, cost);
}

void TraceSink::record(std::int32_t block, std::int16_t warp, AccessKind kind,
                       std::int16_t phase, std::span<const std::int64_t> addrs, int cost) {
  assert(phase >= 0 && static_cast<std::size_t>(phase) < phases_.size());
  if (segments_.empty()) segments_.emplace_back();
  std::vector<std::int64_t>& seg = segments_.back();
  TraceEvent e;
  e.block = block;
  e.warp = warp;
  e.kind = kind;
  e.phase_id = phase;
  e.lanes = static_cast<std::uint16_t>(addrs.size());
  e.cost = cost;
  e.segment = static_cast<std::uint32_t>(segments_.size() - 1);
  e.first_addr = static_cast<std::uint32_t>(seg.size());
  seg.insert(seg.end(), addrs.begin(), addrs.end());
  events_.push_back(e);
}

void TraceSink::merge_from(TraceSink&& other) {
  std::vector<std::int16_t> phase_map(other.phases_.size());
  for (std::size_t i = 0; i < other.phases_.size(); ++i)
    phase_map[i] = phase_id(other.phases_[i]);
  const auto base = static_cast<std::uint32_t>(segments_.size());
  segments_.insert(segments_.end(), std::make_move_iterator(other.segments_.begin()),
                   std::make_move_iterator(other.segments_.end()));
  for (TraceEvent e : other.events_) {
    e.phase_id = phase_map[static_cast<std::size_t>(e.phase_id)];
    e.segment += base;
    events_.push_back(e);
  }
  other.clear();
}

void TraceSink::clear() {
  events_.clear();
  segments_.clear();
  phases_.clear();
}

std::int64_t TraceSink::shared_conflicts(std::string_view phase) const {
  std::int64_t total = 0;
  for (const TraceEvent& e : events_) {
    if (e.kind != AccessKind::SharedRead && e.kind != AccessKind::SharedWrite) continue;
    if (!phase.empty() && phases_[static_cast<std::size_t>(e.phase_id)] != phase) continue;
    total += e.cost;
  }
  return total;
}

void TraceSink::write_csv(std::ostream& os) const {
  os << "block,warp,kind,phase,cost,addresses\n";
  for (const TraceEvent& e : events_) {
    os << e.block << ',' << e.warp << ',' << kind_name(e.kind) << ','
       << phases_[static_cast<std::size_t>(e.phase_id)] << ',' << e.cost << ',';
    const auto addrs = addresses(e);
    for (std::size_t l = 0; l < addrs.size(); ++l) {
      if (l) os << ' ';
      os << addrs[l];
    }
    os << '\n';
  }
}

}  // namespace cfmerge::gpusim
