// hp-lint-fixture: expect=2
// Golden fixture: std::stable_sort and std::inplace_merge allocate a
// temporary buffer, so both are findings inside a marked region;
// std::sort (in place, no buffer) is not, and neither is a stable sort
// outside the region.
#include <algorithm>
#include <vector>

inline void sort_events(std::vector<int>& v) {
  std::stable_sort(v.begin(), v.end());  // outside the region: allowed
  // HP_HOT_BEGIN(sort)
  std::sort(v.begin(), v.end());
  std::stable_sort(v.begin(), v.end());
  std::inplace_merge(v.begin(), v.begin() + 1, v.end());
  // HP_HOT_END(sort)
}
