#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfbench {

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// The highest percentile with at least ten samples beyond it: the 11th
/// largest sample. With ten or fewer samples, the maximum.
struct Tail {
  double value = 0;
  double percentile = 100;
  size_t n = 0;
  size_t beyond = 0;
};

inline Tail TailOf(std::vector<double> v) {
  constexpr size_t kBeyond = 10;
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  if (v.size() <= kBeyond) {
    t.value = v.back();
    return t;
  }
  t.beyond = kBeyond;
  t.value = v[v.size() - 1 - kBeyond];
  t.percentile = 100.0 * static_cast<double>(v.size() - kBeyond) /
                 static_cast<double>(v.size());
  return t;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
