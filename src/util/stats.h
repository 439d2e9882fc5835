// Small descriptive-statistics helpers used by the benchmark harnesses
// (Table 2 reports mean and standard deviation of per-warp work expansion)
// and by generator tests.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace tt {

struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  // population standard deviation
  double min = 0.0;
  double max = 0.0;
};

// One-pass accumulator (Welford) -- numerically stable for long runs.
class RunningStats {
 public:
  void add(double x);
  [[nodiscard]] Summary summary() const;
  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }
  double variance() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

Summary summarize(std::span<const double> xs);

// Where percentile p in [0, 100] falls among n >= 1 values sorted
// ascending: rank p / 100 * (n - 1), read by linear interpolation between
// the order statistics x[lo] and x[hi] around it. At the top (lo == n - 1)
// hi == lo and the percentile is x[n - 1] itself. percentile() and the
// serving latency summary (core/serving.h) both read percentiles this way.
struct PercentileRank {
  std::size_t lo = 0;
  std::size_t hi = 0;  // lo + 1, or lo at the top
  double frac = 0;     // rank - lo
  [[nodiscard]] double between(double x_lo, double x_hi) const {
    return hi == lo ? x_lo : x_lo * (1.0 - frac) + x_hi * frac;
  }
};
[[nodiscard]] PercentileRank percentile_rank(std::size_t n, double p);

// p in [0,100]; linear interpolation between order statistics.
double percentile(std::vector<double> xs, double p);

}  // namespace tt
