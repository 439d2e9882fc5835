#include "core/profiler.h"

#include <algorithm>

namespace tt {

double traversal_jaccard(std::vector<NodeId> a, std::vector<NodeId> b) {
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());
  return sorted_jaccard(a, b);
}

double sorted_jaccard(std::span<const NodeId> a, std::span<const NodeId> b) {
  if (a.empty() && b.empty()) return 1.0;
  std::size_t inter = 0, i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  std::size_t uni = a.size() + b.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace tt
