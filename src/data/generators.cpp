#include "data/generators.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "data/draw_rows.h"
#include "data/projection.h"
#include "util/rng.h"

namespace tt {
namespace {

constexpr double kPi = 3.14159265358979323846;

// Pcg32 steps of draws that do not reject: a next_double takes two, and
// normals come in Box-Muller pairs of two doubles, so an even count of
// normals takes two steps each and leaves no cached variate.
constexpr std::uint64_t kDoubleSteps = 2;
constexpr std::uint64_t normal_steps(int even_count) {
  return 2 * static_cast<std::uint64_t>(even_count);
}

// Uniform direction on the unit sphere.
void sphere_dir(Pcg32& rng, double out[3]) {
  double z = rng.uniform(-1.0, 1.0);
  double phi = rng.uniform(0.0, 2.0 * kPi);
  double r = std::sqrt(std::max(0.0, 1.0 - z * z));
  out[0] = r * std::cos(phi);
  out[1] = r * std::sin(phi);
  out[2] = z;
}

}  // namespace

BodySet gen_plummer(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed, 1);
  BodySet b{PointSet(3, n), std::vector<float>(n, 1.0f / n),
            std::vector<float>(3 * n)};
  for (std::size_t i = 0; i < n; ++i) {
    // Radius from the Plummer cumulative mass profile (Aarseth et al. 1974):
    // r = (u^{-2/3} - 1)^{-1/2} with u uniform, clipped to the 99% sphere.
    double u = rng.uniform(1e-6, 1.0);
    double r = 1.0 / std::sqrt(std::pow(u, -2.0 / 3.0) - 1.0);
    r = std::min(r, 8.0);
    double dir[3];
    sphere_dir(rng, dir);
    for (int d = 0; d < 3; ++d)
      b.pos.set(i, d, static_cast<float>(r * dir[d]));

    // Velocity from the isotropic distribution via von Neumann rejection:
    // g(q) = q^2 (1-q^2)^{7/2}, v = q * v_escape(r).
    double q = 0.0, g = 0.1;
    while (g > q * q * std::pow(1.0 - q * q, 3.5)) {
      q = rng.uniform(0.0, 1.0);
      g = rng.uniform(0.0, 0.1);
    }
    double vesc = std::sqrt(2.0) * std::pow(1.0 + r * r, -0.25);
    double vdir[3];
    sphere_dir(rng, vdir);
    for (int d = 0; d < 3; ++d)
      b.vel[static_cast<std::size_t>(d) * n + i] =
          static_cast<float>(q * vesc * vdir[d]);
  }
  return b;
}

BodySet gen_random_bodies(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed, 2);
  BodySet b{PointSet(3, n), std::vector<float>(n, 1.0f / n),
            std::vector<float>(3 * n)};
  for (std::size_t i = 0; i < n; ++i) {
    for (int d = 0; d < 3; ++d) {
      b.pos.set(i, d, rng.next_float());
      b.vel[static_cast<std::size_t>(d) * n + i] =
          static_cast<float>(rng.uniform(-0.01, 0.01));
    }
  }
  return b;
}

PointSet gen_uniform(std::size_t n, int dim, std::uint64_t seed) {
  Pcg32 rng(seed, 3);
  PointSet p(dim, n);
  for (std::size_t i = 0; i < n; ++i)
    for (int d = 0; d < dim; ++d) p.set(i, d, rng.next_float());
  return p;
}

PointSet gen_covtype_like(std::size_t n, int out_dim, std::uint64_t seed) {
  // Forest-cover records: 54 attributes, 7 cover types; we mimic with 7
  // anisotropic Gaussian clusters of unequal population whose per-dimension
  // scales differ (elevation-like columns dominate).
  constexpr int kInDim = 54;
  constexpr int kClusters = 7;
  Pcg32 rng(seed, 4);

  double center[kClusters][kInDim];
  double sigma[kClusters][kInDim];
  for (int c = 0; c < kClusters; ++c)
    for (int d = 0; d < kInDim; ++d) {
      center[c][d] = rng.normal() * 2.0;
      sigma[c][d] = 0.15 + rng.next_double() * (d < 10 ? 1.2 : 0.3);
    }
  // Population weights ~ the real covtype imbalance (two dominant classes).
  const double weights[kClusters] = {0.36, 0.49, 0.06, 0.01, 0.02, 0.03, 0.03};

  std::vector<float> raw(n * kInDim);
  draw_rows(rng, n, kDoubleSteps + normal_steps(kInDim),
            [&](Pcg32& g, std::size_t i) {
              double u = g.next_double(), acc = 0.0;
              int c = kClusters - 1;
              for (int k = 0; k < kClusters; ++k) {
                acc += weights[k];
                if (u < acc) {
                  c = k;
                  break;
                }
              }
              for (int d = 0; d < kInDim; ++d)
                raw[i * kInDim + d] = static_cast<float>(
                    center[c][d] + g.normal() * sigma[c][d]);
            });
  return random_projection(raw, n, kInDim, out_dim, seed ^ 0xc0417e);
}

PointSet gen_mnist_like(std::size_t n, int out_dim, std::uint64_t seed) {
  return gen_mnist_like_labeled(n, out_dim, seed).points;
}

LabeledPoints gen_mnist_like_labeled(std::size_t n, int out_dim,
                                     std::uint64_t seed) {
  // Handwritten digits live near a low-dimensional manifold inside 784-d
  // pixel space: we synthesize 10 classes, each a random affine image of a
  // 12-d latent Gaussian, plus small isotropic pixel noise.
  constexpr int kInDim = 784;
  constexpr int kLatent = 12;
  constexpr int kClasses = 10;
  Pcg32 rng(seed, 5);

  // Per-class frame: origin + latent basis. Basis entries are sparse-ish to
  // keep generation at O(latent * in_dim) but the images still overlap.
  // The origins' rows are drawn first, then the bases', kInDim normals a
  // row.
  std::vector<float> origin(kClasses * kInDim);
  std::vector<float> basis(kClasses * kLatent * kInDim);
  draw_rows(rng, kClasses * (1 + kLatent), normal_steps(kInDim),
            [&](Pcg32& g, std::size_t r) {
              const bool is_origin = r < kClasses;
              float* v = is_origin ? &origin[r * kInDim]
                                   : &basis[(r - kClasses) * kInDim];
              const double scale = is_origin ? 1.5 : 0.6;
              for (int d = 0; d < kInDim; ++d)
                v[d] = static_cast<float>(g.normal() * scale);
            });

  // A point: its class, then its latent coordinates and pixel noise.
  std::vector<float> raw(n * kInDim);
  std::vector<int> labels(n);
  draw_rows(rng, n, 1 + normal_steps(kLatent + kInDim),
            [&](Pcg32& g, std::size_t i) {
              int c = static_cast<int>(g.next_below(kClasses));
              labels[i] = c;
              float latent[kLatent];
              for (int l = 0; l < kLatent; ++l)
                latent[l] = static_cast<float>(g.normal());
              const float* o = &origin[static_cast<std::size_t>(c) * kInDim];
              const float* bmat =
                  &basis[static_cast<std::size_t>(c) * kLatent * kInDim];
              float* row = &raw[i * kInDim];
              for (int d = 0; d < kInDim; ++d) row[d] = o[d];
              for (int l = 0; l < kLatent; ++l) {
                const float* brow = bmat + static_cast<std::size_t>(l) * kInDim;
                for (int d = 0; d < kInDim; ++d) row[d] += latent[l] * brow[d];
              }
              for (int d = 0; d < kInDim; ++d)
                row[d] += static_cast<float>(g.normal() * 0.05);
            });
  return {random_projection(raw, n, kInDim, out_dim, seed ^ 0x3a157),
          std::move(labels)};
}

PointSet gen_geocity_like(std::size_t n, std::uint64_t seed) {
  // City locations: cluster populations follow a Zipf-like power law, and
  // each "city" is a tight 2-d Gaussian blob; a small uniform background
  // stands in for rural locations.
  Pcg32 rng(seed, 6);
  constexpr int kCities = 64;
  double cx[kCities], cy[kCities], cw[kCities], spread[kCities];
  double total = 0.0;
  for (int c = 0; c < kCities; ++c) {
    cx[c] = rng.uniform(0.0, 360.0);
    cy[c] = rng.uniform(-60.0, 70.0);
    cw[c] = 1.0 / std::pow(c + 1.0, 1.1);  // Zipf populations
    spread[c] = 0.02 + 0.2 * rng.next_double();
    total += cw[c];
  }
  PointSet p(2, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.next_double() < 0.05) {  // rural background
      p.set(i, 0, static_cast<float>(rng.uniform(0.0, 360.0)));
      p.set(i, 1, static_cast<float>(rng.uniform(-60.0, 70.0)));
      continue;
    }
    double u = rng.uniform(0.0, total), acc = 0.0;
    int c = kCities - 1;
    for (int k = 0; k < kCities; ++k) {
      acc += cw[k];
      if (u < acc) {
        c = k;
        break;
      }
    }
    p.set(i, 0, static_cast<float>(cx[c] + rng.normal() * spread[c]));
    p.set(i, 1, static_cast<float>(cy[c] + rng.normal() * spread[c]));
  }
  return p;
}

}  // namespace tt
