// Pure helpers of the benchmark: percentile selection and span self time.
// Header-only so the benchmark's unit tests exercise exactly this code.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Median with the usual even-count convention (mean of the middle two).
inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// The tail statistic: the highest percentile that still has at least
/// `kTailBeyond` samples above it.  With samples sorted ascending that is
/// the sample at index n - 11, i.e. the p = 100 * (n - 10) / n percentile.
/// Fewer than 11 samples have no such percentile; the maximum is reported
/// with beyond = 0 so the caller can flag it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< share of samples at or below `value`, in %
  std::size_t beyond = 0;   ///< samples strictly above the selected rank
  std::size_t samples = 0;
};

inline constexpr std::size_t kTailBeyond = 10;

inline Tail tail(std::vector<double> xs) {
  Tail t;
  t.samples = xs.size();
  if (xs.empty()) return t;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  const std::size_t idx = n > kTailBeyond ? n - kTailBeyond - 1 : n - 1;
  t.value = xs[idx];
  t.beyond = n - 1 - idx;
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

/// One recorded span: a named interval, the span that caused it (-1 for a
/// root) and the op it belongs to (-1 for set-up work).
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  std::int64_t op = -1;

  [[nodiscard]] double ms() const { return end_ms - start_ms; }
};

/// Self time of every span: its duration minus the part of that interval
/// covered by its children (overlapping children are counted once, and a
/// child running past its parent is clipped to the parent).
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ms, s.end_ms);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double lo = 0.0, hi = 0.0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, p.start_ms);
      b = std::min(b, p.end_ms);
      if (b <= a) continue;
      if (open && a <= hi) {
        hi = std::max(hi, b);
        continue;
      }
      if (open) covered += hi - lo;
      lo = a;
      hi = b;
      open = true;
    }
    if (open) covered += hi - lo;
    self[i] = p.ms() - covered;
  }
  return self;
}

/// In-memory span recorder.  Scopes always measure their duration with
/// steady_clock (the untraced run times ops through the same code); only
/// an enabled tracer stores the span.  Spans nest by scope: a scope opened
/// while another is open becomes its child.  Single-threaded by design —
/// the benchmark is one caller.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

  class Scope {
   public:
    Scope(Tracer& t, std::string name, std::int64_t op)
        : t_(&t), start_(t.now_ms()) {
      if (t.on_) {
        id_ = static_cast<int>(t.spans_.size());
        t.spans_.push_back(
            Span{std::move(name), start_, start_, t.stack_.empty() ? -1 : t.stack_.back(), op});
        t.stack_.push_back(id_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { stop(); }

    /// Closes the span (idempotent) and returns its duration in ms.
    double stop() {
      if (!done_) {
        end_ = t_->now_ms();
        done_ = true;
        if (id_ >= 0) {
          t_->spans_[static_cast<std::size_t>(id_)].end_ms = end_;
          t_->stack_.pop_back();
        }
      }
      return end_ - start_;
    }

   private:
    Tracer* t_;
    double start_;
    double end_ = 0.0;
    int id_ = -1;
    bool done_ = false;
  };

  [[nodiscard]] Scope scope(std::string name, std::int64_t op = -1) {
    return Scope(*this, std::move(name), op);
  }
  [[nodiscard]] bool on() const { return on_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  using Clock = std::chrono::steady_clock;
  [[nodiscard]] double now_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - epoch_).count();
  }

  bool on_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
