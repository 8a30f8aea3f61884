#pragma once

// Shared declarations of the asyncml_perfbench binary (see README.md).

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "asyncml.hpp"

namespace perfbench {

/// Every workload runs on 3 workers x 1 executor core, one partition per
/// worker, so the executor threads plus the driver thread fill a 4-core host
/// without oversubscribing it (2x2 and 8x2 shapes spread far wider run to
/// run).
inline constexpr int kWorkers = 3;
inline constexpr int kCoresPerWorker = 1;

enum class SolverKind { kAsgd, kAsaga, kScheduledSgd };

/// One workload's pinned inputs (perfbench/workloads.json), passed on the
/// command line by run.py.
struct Spec {
  std::string name;
  SolverKind solver = SolverKind::kAsgd;
  bool sparse = false;
  std::size_t rows = 0;
  std::size_t cols = 0;
  double nnz_per_row = 0.0;  ///< sparse only
  double batch_fraction = 0.1;
  double step = 0.1;
  bool inv_sqrt_step = false;  ///< false: constant step
  std::uint64_t updates = 0;   ///< fixed update budget per solve
  /// Objective targets are relative to the objective at w = 0.
  double target = 0.0;         ///< time_to_target_s stops the clock here
  double bound = 0.0;          ///< the final objective must end at or below
  bool unix_socket = false;    ///< kUnixSocket transport instead of in-process
  bool disk = false;           ///< durable disk tier on
  std::uint64_t checkpoint_every = 0;
};

using Metrics = std::map<std::string, double>;

[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}


/// Times calls into each layer's public functions on the workload's own
/// inputs: ModelStore::publish / VersionedModelCache::value_at at the
/// workload's dimension and per-update support, the task-result wire codec
/// on a gradient payload of the workload's shape, and the fused batch
/// gradient over one partition's mini-batch. Returns the median ns per call
/// under the names store.publish_ns.probe, store.resolve_ns.probe,
/// transport.result_encode_ns.probe, transport.result_decode_ns.probe and
/// optim.grad_batch_ns.probe.
[[nodiscard]] Metrics run_probes(const Spec& spec,
                                 const asyncml::optim::Workload& workload,
                                 std::uint64_t seed, int rounds);

}  // namespace perfbench
