#include "data/projection.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace tt {

PointSet random_projection(std::span<const float> data, std::size_t n,
                           int in_dim, int out_dim, std::uint64_t seed) {
  if (out_dim <= 0 || out_dim > kMaxDim)
    throw std::invalid_argument("random_projection: bad out_dim");
  if (in_dim <= 0 || data.size() != n * static_cast<std::size_t>(in_dim))
    throw std::invalid_argument("random_projection: data size mismatch");

  Pcg32 rng(seed, 0x2545f4914f6cdd1dULL);
  const double scale = 1.0 / std::sqrt(static_cast<double>(out_dim));
  std::vector<float> m(static_cast<std::size_t>(in_dim) * out_dim);
  for (auto& v : m) v = static_cast<float>(rng.normal() * scale);

  // Parallel over points, each writing only its own coordinates. Each
  // output sums its in_dim products in ascending d; a point's out_dim
  // sums advance together (d outer), so they are independent chains the
  // core overlaps rather than one add waiting on the last.
  PointSet out(out_dim, n);
#pragma omp parallel for schedule(static)
  for (std::int64_t p = 0; p < static_cast<std::int64_t>(n); ++p) {
    const auto i = static_cast<std::size_t>(p);
    const float* row = data.data() + i * in_dim;
    double acc[kMaxDim] = {};
    for (int d = 0; d < in_dim; ++d) {
      const double x = row[d];
      const float* md = &m[static_cast<std::size_t>(d) * out_dim];
      for (int o = 0; o < out_dim; ++o) acc[o] += x * md[o];
    }
    for (int o = 0; o < out_dim; ++o)
      out.set(i, o, static_cast<float>(acc[o]));
  }
  return out;
}

}  // namespace tt
