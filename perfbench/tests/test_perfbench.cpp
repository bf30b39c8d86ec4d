// Unit tests of the benchmark's own logic: the output oracle, the tail
// percentile and span self time.  Plain checks, exit code 1 on failure.
#include <climits>
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "oracle.hpp"
#include "stats.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void oracle_plain() {
  const std::vector<int> in{5, INT_MAX, -3, 0, INT_MIN, 5, 2};
  std::vector<int> out{INT_MIN, -3, 0, 2, 5, 5, INT_MAX};
  check(sort_ok(out, in), "a correct plain sort passes");
  std::swap(out[2], out[3]);  // one swapped value
  check(!sort_ok(out, in), "a swapped value fails");
  out = {INT_MIN, -3, 0, 2, 5, 5};
  check(!sort_ok(out, in), "a lost element fails");
  out = {INT_MIN, -3, 0, 2, 5, INT_MAX, INT_MAX};  // a 5 replaced by padding
  check(!sort_ok(out, in), "an element replaced by the pad value fails");
}

void oracle_by_key() {
  const std::vector<int> keys{3, INT_MAX, 1, 3, INT_MAX};
  const std::vector<int> vals{0, 1, 2, 3, 4};
  // Ties may come back in any order.
  std::vector<int> k{1, 3, 3, INT_MAX, INT_MAX}, v{2, 3, 0, 4, 1};
  check(by_key_ok(k, v, keys, vals), "a correct by-key sort passes (ties in any order)");
  std::vector<int> v2 = v;
  std::swap(v2[0], v2[1]);  // one swapped value: keys still sorted
  check(!by_key_ok(k, v2, keys, vals), "a swapped value fails");
  std::vector<int> v3 = v;
  v3[4] = 0;  // one lost pair: its value replaced by the pad's V{}
  check(!by_key_ok(k, v3, keys, vals), "a lost pair fails");
  std::vector<int> k4{3, 1, 3, INT_MAX, INT_MAX};
  check(!by_key_ok(k4, v, keys, vals), "unsorted keys fail");
  std::vector<int> k5 = k, v5 = v;
  k5.pop_back();
  v5.pop_back();
  check(!by_key_ok(k5, v5, keys, vals), "a dropped pair fails");
}

void tail_percentile() {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);  // unsorted on purpose
  Tail t = tail(xs);
  check(near(t.value, 90.0) && t.beyond == 10 && near(t.percentile, 90.0) && t.samples == 100,
        "100 samples: p90, 10 beyond");

  xs.assign(11, 0.0);
  for (int i = 0; i < 11; ++i) xs[static_cast<std::size_t>(i)] = i;
  t = tail(xs);
  check(near(t.value, 0.0) && t.beyond == 10, "11 samples: the minimum has 10 beyond");

  xs = {3, 1, 2};
  t = tail(xs);
  check(near(t.value, 3.0) && t.beyond == 0 && near(t.percentile, 100.0),
        "fewer than 11 samples: the maximum, flagged by beyond = 0");

  xs.clear();
  for (int i = 0; i < 1500; ++i) xs.push_back(i);
  t = tail(xs);
  std::size_t above = 0;
  for (double x : xs) above += x > t.value ? 1 : 0;
  check(above == 10 && t.beyond == 10, "1500 samples: exactly 10 beyond");

  check(near(median({4, 1, 3, 2}), 2.5) && near(median({5, 1, 3}), 3.0), "median");
}

void self_time() {
  // root [0, 100] with children [10, 30], [20, 50] (overlapping) and
  // [90, 120] (runs past its parent); grandchild [12, 14] under child 1.
  std::vector<Span> spans{
      {"root", 0, 100, -1, 0},  {"a", 10, 30, 0, 0},  {"b", 20, 50, 0, 0},
      {"c", 90, 120, 0, 0},     {"a.x", 12, 14, 1, 0}, {"other", 200, 210, -1, 1},
  };
  const std::vector<double> s = self_times(spans);
  check(near(s[0], 100 - 40 - 10), "root: overlapping children counted once, overrun clipped");
  check(near(s[1], 20 - 2), "child minus grandchild");
  check(near(s[2], 30) && near(s[3], 30) && near(s[4], 2) && near(s[5], 10), "leaves keep their duration");

  Tracer tr(true);
  {
    auto outer = tr.scope("outer", 7);
    { auto inner = tr.scope("inner", 7); }
    auto sibling = tr.scope("sibling", 7);
  }
  const auto& sp = tr.spans();
  check(sp.size() == 3 && sp[0].parent == -1 && sp[1].parent == 0 && sp[2].parent == 0 &&
            sp[1].op == 7 && sp[0].end_ms >= sp[2].end_ms,
        "tracer nests scopes");
  Tracer off(false);
  {
    auto s2 = off.scope("x");
    check(s2.stop() >= 0.0, "a disabled tracer still times");
  }
  check(off.spans().empty(), "a disabled tracer records nothing");
}

}  // namespace

int main() {
  oracle_plain();
  oracle_by_key();
  tail_percentile();
  self_time();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench unit tests: all passed\n");
  return 0;
}
