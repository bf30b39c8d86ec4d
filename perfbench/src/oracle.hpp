// Output oracles.  Every op the benchmark runs is checked against
// std::sort; a mismatch makes the op a failed op (never retried, skipped or
// filtered).  Header-only so the benchmark's unit tests exercise this code.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

namespace perfbench {

/// A plain-key sort is correct iff it returns exactly std::sort(input).
template <typename T>
bool sort_ok(const std::vector<T>& output, std::vector<T> input) {
  std::sort(input.begin(), input.end());
  return output == input;
}

/// A by-key sort is correct iff the keys come back sorted and the
/// (key, value) multiset is unchanged — so a swapped value, a lost pair or
/// a value replaced by padding all fail, while any order among equal keys
/// passes.
template <typename K, typename V>
bool by_key_ok(const std::vector<K>& keys_out, const std::vector<V>& values_out,
               const std::vector<K>& keys_in, const std::vector<V>& values_in) {
  if (keys_out.size() != keys_in.size() || values_out.size() != values_in.size() ||
      keys_out.size() != values_out.size())
    return false;
  if (!std::is_sorted(keys_out.begin(), keys_out.end())) return false;
  std::vector<std::pair<K, V>> got(keys_out.size()), want(keys_in.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    got[i] = {keys_out[i], values_out[i]};
    want[i] = {keys_in[i], values_in[i]};
  }
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  return got == want;
}

}  // namespace perfbench
