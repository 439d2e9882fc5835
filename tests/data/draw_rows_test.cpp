// draw_rows and the generators built on it must reproduce the sequential
// loop bit for bit for any OpenMP team: every row, and the stream's final
// state.
#include "data/draw_rows.h"

#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <vector>

#include "data/generators.h"
#include "data/projection.h"
#include "util/rng.h"

namespace tt {
namespace {

constexpr std::size_t kSizes[] = {0, 1, 2, 3, 5, 33, 513};

// Runs `body` with OpenMP teams of 1 to 4 threads.
void for_each_team(const std::function<void(int)>& body) {
  const int saved = omp_get_max_threads();
  for (int team = 1; team <= 4; ++team) {
    omp_set_num_threads(team);
    body(team);
  }
  omp_set_num_threads(saved);
}

// A row of three plain steps; rows for which `extra` holds also take
// `extra(i)` more steps, and odd-numbered extras draw one normal, which
// leaves a cached variate for the next row.
struct SyntheticRow {
  std::vector<std::uint64_t>* out;
  std::function<int(std::size_t)> extra;
  void operator()(Pcg32& g, std::size_t i) const {
    std::uint64_t h = 0;
    for (int s = 0; s < 3; ++s) h = h * 0x9e3779b97f4a7c15ull + g.next_u32();
    const int e = extra(i);
    for (int s = 0; s < e; ++s) h ^= g.next_u32();
    if (e % 2 == 1) h += std::bit_cast<std::uint64_t>(g.normal());
    (*out)[i] = h;
  }
};

void expect_matches_sequential(std::size_t n,
                               const std::function<int(std::size_t)>& extra,
                               std::uint64_t seed, int team) {
  std::vector<std::uint64_t> want(n), got(n, 0);
  Pcg32 seq(seed, 21), par(seed, 21);
  const SyntheticRow seq_row{&want, extra}, par_row{&got, extra};
  for (std::size_t i = 0; i < n; ++i) seq_row(seq, i);
  draw_rows(par, n, 3, par_row);
  EXPECT_EQ(got, want) << "n = " << n << ", team = " << team;
  EXPECT_TRUE(par == seq) << "n = " << n << ", team = " << team;
  EXPECT_EQ(par.next_u32(), seq.next_u32());
}

TEST(DrawRows, EqualsTheSequentialLoop) {
  for_each_team([](int team) {
    for (std::size_t n : kSizes)
      expect_matches_sequential(n, [](std::size_t) { return 0; }, n, team);
  });
}

TEST(DrawRows, RedrawsFromTheFirstRowThatTakesExtraSteps) {
  for_each_team([](int team) {
    for (std::size_t n : kSizes) {
      if (n == 0) continue;
      // One off-plan row at the start, the middle or the end, in the last
      // thread's block, or every seventh row; even extras only shift the
      // stream, odd ones also leave a cached normal behind.
      const std::size_t picks[] = {0, n / 2, n - 1, n - n / 4 - 1};
      for (std::size_t pick : picks)
        for (int e : {1, 2})
          expect_matches_sequential(
              n, [pick, e](std::size_t i) { return i == pick ? e : 0; },
              7 * n + pick, team);
      expect_matches_sequential(
          n, [](std::size_t i) { return i % 7 == 3 ? 2 : 0; }, n + 1, team);
    }
  });
}

TEST(DrawRows, LemireRejectionsFallBackInOrder) {
  // next_below(b) retries a draw with probability (2^32 mod b) / 2^32:
  // about 1/2 for 2^31 + 1, so the first row already retries; 1/64 for
  // 2^26 + 1 and 1/256 for 2^24 + 1, so the first retry comes tens or
  // hundreds of rows in (with these seeds, rows 9 and 24, and row 476,
  // in the last thread's block), and the rows before it stay as the team
  // drew them.
  for (const std::uint32_t bound : {0x80000001u, 0x04000001u, 0x01000001u})
    for_each_team([bound](int team) {
      for (std::size_t n : kSizes) {
        std::vector<std::uint32_t> want(n), got(n, 0);
        Pcg32 seq(n, 5), par(n, 5);
        for (std::size_t i = 0; i < n; ++i) want[i] = seq.next_below(bound);
        draw_rows(par, n, 1, [&got, bound](Pcg32& g, std::size_t i) {
          got[i] = g.next_below(bound);
        });
        EXPECT_EQ(got, want)
            << "bound = " << bound << ", n = " << n << ", team = " << team;
        EXPECT_TRUE(par == seq)
            << "bound = " << bound << ", n = " << n << ", team = " << team;
      }
    });
}

TEST(DrawRows, ACachedNormalOnEntryIsUsedByTheFirstRow) {
  for_each_team([](int team) {
    std::vector<std::uint64_t> want(33), got(33, 0);
    Pcg32 seq(4, 21), par(4, 21);
    (void)seq.normal();
    (void)par.normal();
    const auto none = [](std::size_t) { return 0; };
    const SyntheticRow seq_row{&want, none}, par_row{&got, none};
    for (std::size_t i = 0; i < want.size(); ++i) seq_row(seq, i);
    draw_rows(par, got.size(), 3, par_row);
    EXPECT_EQ(got, want) << "team = " << team;
    EXPECT_TRUE(par == seq) << "team = " << team;
  });
}

// ---------------------------------------------------------------------
// Reference generators: the same draws one row after another from one
// stream, and the projection summing each output over d in its own loop.
// The team-drawn generators must equal them bit for bit.
// ---------------------------------------------------------------------
namespace reference {

PointSet random_projection(const std::vector<float>& data, std::size_t n,
                           int in_dim, int out_dim, std::uint64_t seed) {
  Pcg32 rng(seed, 0x2545f4914f6cdd1dULL);
  const double scale = 1.0 / std::sqrt(static_cast<double>(out_dim));
  std::vector<float> m(static_cast<std::size_t>(in_dim) * out_dim);
  for (auto& v : m) v = static_cast<float>(rng.normal() * scale);
  PointSet out(out_dim, n);
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = data.data() + i * in_dim;
    for (int o = 0; o < out_dim; ++o) {
      double acc = 0.0;
      for (int d = 0; d < in_dim; ++d)
        acc += static_cast<double>(row[d]) *
               m[static_cast<std::size_t>(d) * out_dim + o];
      out.set(i, o, static_cast<float>(acc));
    }
  }
  return out;
}

PointSet gen_covtype_like(std::size_t n, int out_dim, std::uint64_t seed) {
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
  const double weights[kClusters] = {0.36, 0.49, 0.06, 0.01, 0.02, 0.03, 0.03};
  std::vector<float> raw(n * kInDim);
  for (std::size_t i = 0; i < n; ++i) {
    double u = rng.next_double(), acc = 0.0;
    int c = kClusters - 1;
    for (int k = 0; k < kClusters; ++k) {
      acc += weights[k];
      if (u < acc) {
        c = k;
        break;
      }
    }
    for (int d = 0; d < kInDim; ++d)
      raw[i * kInDim + d] =
          static_cast<float>(center[c][d] + rng.normal() * sigma[c][d]);
  }
  return random_projection(raw, n, kInDim, out_dim, seed ^ 0xc0417e);
}

LabeledPoints gen_mnist_like_labeled(std::size_t n, int out_dim,
                                     std::uint64_t seed) {
  constexpr int kInDim = 784;
  constexpr int kLatent = 12;
  constexpr int kClasses = 10;
  Pcg32 rng(seed, 5);
  std::vector<float> origin(kClasses * kInDim);
  std::vector<float> basis(kClasses * kLatent * kInDim);
  for (auto& v : origin) v = static_cast<float>(rng.normal() * 1.5);
  for (auto& v : basis) v = static_cast<float>(rng.normal() * 0.6);
  std::vector<float> raw(n * kInDim);
  std::vector<float> latent(kLatent);
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    int c = static_cast<int>(rng.next_below(kClasses));
    labels[i] = c;
    for (int l = 0; l < kLatent; ++l)
      latent[l] = static_cast<float>(rng.normal());
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
      row[d] += static_cast<float>(rng.normal() * 0.05);
  }
  return {random_projection(raw, n, kInDim, out_dim, seed ^ 0x3a157),
          std::move(labels)};
}

}  // namespace reference

// memcmp of `bytes` bytes; empty ranges (possibly null) are equal.
bool same_bytes(const void* a, const void* b, std::size_t bytes) {
  return bytes == 0 || std::memcmp(a, b, bytes) == 0;
}

void expect_same_bits(const PointSet& got, const PointSet& want,
                      const char* what, std::size_t n, int team) {
  ASSERT_EQ(got.dim(), want.dim()) << what;
  ASSERT_EQ(got.size(), want.size()) << what;
  for (int d = 0; d < want.dim(); ++d)
    EXPECT_TRUE(same_bytes(got.plane(d).data(), want.plane(d).data(),
                           want.size() * sizeof(float)))
        << what << ": n = " << n << ", team = " << team << ", dim " << d;
}

constexpr std::size_t kGenSizes[] = {0, 1, 7, 64, 333};
constexpr std::uint64_t kSeeds[] = {1, 2, 0xdeadbeef};

TEST(TeamDrawnGenerators, CovtypeLikeEqualsTheSequentialGenerator) {
  for_each_team([](int team) {
    for (std::size_t n : kGenSizes)
      for (std::uint64_t seed : kSeeds)
        expect_same_bits(gen_covtype_like(n, 7, seed),
                         reference::gen_covtype_like(n, 7, seed), "covtype",
                         n, team);
  });
}

TEST(TeamDrawnGenerators, MnistLikeEqualsTheSequentialGenerator) {
  for_each_team([](int team) {
    for (std::size_t n : kGenSizes)
      for (std::uint64_t seed : kSeeds) {
        const LabeledPoints got = gen_mnist_like_labeled(n, 7, seed);
        const LabeledPoints want =
            reference::gen_mnist_like_labeled(n, 7, seed);
        expect_same_bits(got.points, want.points, "mnist labeled", n, team);
        ASSERT_EQ(got.labels.size(), want.labels.size());
        EXPECT_TRUE(same_bytes(got.labels.data(), want.labels.data(),
                               want.labels.size() * sizeof(int)))
            << "n = " << n << ", team = " << team;
        expect_same_bits(gen_mnist_like(n, 3, seed),
                         reference::gen_mnist_like_labeled(n, 3, seed).points,
                         "mnist", n, team);
      }
  });
}

TEST(TeamDrawnGenerators, RandomProjectionEqualsTheSequentialSum) {
  for_each_team([](int team) {
    for (std::size_t n : kGenSizes)
      for (int in_dim : {1, 54, 784})
        for (int out_dim : {1, 7, kMaxDim}) {
          std::vector<float> data(n * static_cast<std::size_t>(in_dim));
          Pcg32 rng(n * 31 + static_cast<std::size_t>(in_dim), 9);
          for (auto& v : data) v = static_cast<float>(rng.normal() * 3.0);
          expect_same_bits(
              random_projection(data, n, in_dim, out_dim, 77),
              reference::random_projection(data, n, in_dim, out_dim, 77),
              "projection", n, team);
        }
  });
}

}  // namespace
}  // namespace tt
