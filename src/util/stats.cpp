#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tt {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
}

Summary RunningStats::summary() const {
  Summary s;
  s.count = n_;
  s.mean = mean_;
  s.stddev = std::sqrt(variance());
  s.min = min_;
  s.max = max_;
  return s;
}

Summary summarize(std::span<const double> xs) {
  RunningStats rs;
  for (double x : xs) rs.add(x);
  return rs.summary();
}

PercentileRank percentile_rank(std::size_t n, double p) {
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  PercentileRank r;
  r.lo = static_cast<std::size_t>(rank);
  if (r.lo + 1 >= n) {
    r.lo = r.hi = n - 1;
    return r;
  }
  r.hi = r.lo + 1;
  r.frac = rank - static_cast<double>(r.lo);
  return r;
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("percentile of empty sample");
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile range");
  std::sort(xs.begin(), xs.end());
  const PercentileRank r = percentile_rank(xs.size(), p);
  return r.between(xs[r.lo], xs[r.hi]);
}

}  // namespace tt
