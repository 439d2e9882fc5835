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

// p in [0,100]; linear interpolation between order statistics.
double percentile(std::vector<double> xs, double p);

}  // namespace tt
