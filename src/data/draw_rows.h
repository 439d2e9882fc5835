// Drawing a generator's rows on the OpenMP team, bit for bit as the
// sequential loop draws them.
//
// The covtype-like and mnist-like generators fill rows [0, n) in order
// from one Pcg32 stream, and a row takes a fixed number of steps when no
// draw rejects: a mnist-like point is one next_below and 796 normals,
// 1593 steps. Pcg32::advance lets each thread of the team start its block
// of rows where the sequential loop reaches it. A rejection (a Lemire
// next_below retry, a Box-Muller u1 of zero) takes more steps than that
// and moves every later row, so each thread checks after every row that
// its stream is exactly `draws` steps further on with no cached normal,
// and stops at the first row that is not; the calling thread then redraws
// the earliest such row and every row after it in order. The rows and
// the stream's final state are the sequential loop's for any team size.
#pragma once

#include <omp.h>

#include <cstddef>
#include <cstdint>

#include "util/rng.h"

namespace tt {

// Leaves the rows and `rng` as
//   for (std::size_t i = 0; i < n; ++i) row(rng, i);
// does. `row(g, i)` draws row i from `g`, normally in exactly `draws`
// next_u32 steps leaving no cached normal; it may run on any thread of
// the team, so it writes only row i's outputs, reads nothing another row
// writes, and allocates nothing.
template <class Row>
void draw_rows(Pcg32& rng, std::size_t n, std::uint64_t draws,
               const Row& row) {
  std::size_t redraw_from = rng.has_cached_normal() ? 0 : n;
  if (redraw_from == n) {
#pragma omp parallel reduction(min : redraw_from)
    {
      const auto team = static_cast<std::size_t>(omp_get_num_threads());
      const auto t = static_cast<std::size_t>(omp_get_thread_num());
      const std::size_t end = n * (t + 1) / team;
      Pcg32 g = rng;
      g.advance(n * t / team * draws);
      Pcg32 want = g;
      for (std::size_t i = n * t / team; i < end; ++i) {
        row(g, i);
        want.advance(draws);
        if (!(g == want)) {
          redraw_from = i;
          break;
        }
      }
    }
  }
  rng.advance(redraw_from * draws);
  for (std::size_t i = redraw_from; i < n; ++i) row(rng, i);
}

}  // namespace tt
