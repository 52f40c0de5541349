#pragma once

// The benchmark's four workloads (see workloads.json for why each exists
// and which layer metric should move which end-to-end metric on it).

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload. With trace off the metrics are the end-to-end set,
/// with trace on the per-layer set. Progress, digests and failure reasons
/// go to stdout as it runs. Throws std::invalid_argument on an unknown
/// workload name.
[[nodiscard]] RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
