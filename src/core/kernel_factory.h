// Name-keyed kernel construction registry -- the promotion of the old
// bench_algos/kernel_builder.h per-algo switch into a first-class core
// API. A builder registered under a name ("pc", "rope_knn",
// "fused_knn_nn", ...) generates its input data, orders it, builds the
// tree and constructs the kernel, parking everything behind the returned
// KernelHandle's keep-alive so the handle is self-contained. Consumers
// (bench/selection_sweep, bench/fusion, the auto_select acceptance test)
// then ask for kernels by name and run them through the type-erased
// launch API (core/launch.h) -- no per-algo switch, no direct dependency
// on the benchmark kernel types.
//
// The registry itself lives in core, below tt_data/tt_algos; the builders
// that register the benchmark kernels live in bench_algos
// (register_kernels.h: register_bench_kernels()), mirroring how
// tt_obs_report layers above tt_algos.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/launch.h"
#include "simt/address_space.h"

namespace tt {

// How the query points are laid out before the tree build: the two
// "sorted" layouts of section 4.4 (Morton for low dimensions, kd-tree
// leaf order for high) and the adversarial shuffled layout. (Moved here
// from bench_algos/kernel_builder.h so KernelRequest can name a layout
// without reaching above core.)
enum class PointOrder { kMorton, kTree, kShuffled };

[[nodiscard]] constexpr const char* point_order_name(PointOrder o) {
  switch (o) {
    case PointOrder::kMorton: return "morton";
    case PointOrder::kTree: return "tree";
    case PointOrder::kShuffled: return "shuffled";
  }
  return "?";
}

// "morton" etc. -> PointOrder; throws std::invalid_argument listing the
// valid spellings otherwise (same convention as variant_from_name).
[[nodiscard]] PointOrder point_order_from_name(const std::string& name);

// Everything a builder may need to generate and shape its input. Plain
// data; defaults match BenchConfig's Table-1 defaults so a
// default-constructed request builds the same kernels run_bench does.
struct KernelRequest {
  std::size_t n = 8192;       // points (or bodies)
  std::uint64_t seed = 42;
  int dim = 7;                // projected dimensionality (tree benchmarks)
  int k = 8;                  // kNN
  double pc_target_neighbors = 32;
  float bh_theta = 0.5f;
  float bh_eps2 = 1e-4f;
  float bh_dt = 0.0125f;      // fused-timestep builders integrate one step
  int leaf_size = 8;          // bucket kd-tree leaves
  // Input generator by name: "covtype", "mnist", "uniform", "geocity"
  // for the point benchmarks; "plummer", "random_bodies" for the body
  // benchmarks. "" picks the builder's canonical Table-1 input. Unknown
  // spellings throw, listing the valid ones.
  std::string input;
  PointOrder order = PointOrder::kTree;
};

// The registry. Builders construct a kernel (plus its data and tree) into
// a keep-alive bundle and register its tree/point buffers into the
// caller's address space, exactly like run_bench does, so run_gpu_sim on
// the kernel and run_launch_pool on the handle model the same address
// space.
class KernelFactory {
 public:
  using Builder = std::function<std::shared_ptr<KernelHandle>(
      const KernelRequest&, GpuAddressSpace&)>;

  [[nodiscard]] static KernelFactory& instance();

  // Latest registration wins; idempotent re-registration is the caller's
  // concern (register_bench_kernels guards itself).
  void register_builder(std::string name, Builder build);

  [[nodiscard]] bool contains(const std::string& name) const;

  // Registered names, sorted -- the "valid:" list of make's error.
  [[nodiscard]] std::vector<std::string> names() const;

  // Build the named kernel. Throws std::invalid_argument on an unknown
  // name, listing the valid spellings (variant_from_name convention).
  [[nodiscard]] std::shared_ptr<KernelHandle> make(
      const std::string& name, const KernelRequest& req,
      GpuAddressSpace& space) const;

 private:
  std::map<std::string, Builder> builders_;
};

}  // namespace tt
