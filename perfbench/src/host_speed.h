#pragma once

// Host-speed calibration. The machines this benchmark runs on are shared:
// the same binary on the same input has run up to 1.6x slower for tens of
// seconds at a time while other tenants were busy, which no amount of
// repetition inside one run can average away. Two fixed reference kernels,
// compiled from the benchmark's own sources (never from src/), are timed
// between the program's operations:
//  * memory: a random pointer chase over 4 MiB plus a binary heap, like the
//    simulator's event queue, slab lookups and graph searches;
//  * compute: exhaustive min-cost assignment over a small cached matrix,
//    like the placement solvers.
// Contention slows the two by different amounts, and the program's
// operations sit between them, so the run's host speed is the geometric mean
// over the two kernels of (reference seconds / median seconds in this run).
// Timed metrics are reported in reference seconds: host seconds x host
// speed; on a host running at reference speed the two are the same. Raw
// host-second values are printed beside the scaled ones.
//
// Medians on both sides (kernel samples here, repeated operation samples in
// the workloads) gave the lowest mean seed-to-seed spread in ten-seed trials
// of the four workloads; best-of-K on both sides, or no scaling, spread more.

#include <array>
#include <cstdint>
#include <vector>

#include "trace.h"

namespace perfbench {

class HostSpeed {
 public:
  /// Times both kernels now if `force` or if at least kIntervalSeconds
  /// passed since the last sample.
  void sample(bool force = false);

  /// Reference seconds per host second (< 1 on a host slower than the
  /// reference). sample(true) must have run once.
  [[nodiscard]] double factor() const;
  /// Median seconds of kernel `k` (0 = memory, 1 = compute) so far.
  [[nodiscard]] double median_seconds(std::size_t k) const;
  [[nodiscard]] std::size_t samples() const { return seconds_[0].size(); }

 private:
  /// Median kernel times on an uncontended 4-core Intel Xeon (2.0 GHz, g++
  /// 12.2, Release): the speed reference seconds refer to.
  static constexpr std::array<double, 2> kReferenceSeconds = {0.020, 0.009};
  static constexpr double kIntervalSeconds = 0.5;

  std::array<std::vector<double>, 2> seconds_;
  std::uint64_t checksum_ = 0;  // kept so the kernels' work is observable
  Clock::time_point last_{};
  std::vector<std::uint32_t> buffer_;  // reused: no page faults in the timing
};

/// Median of a non-empty sample.
[[nodiscard]] double median(std::vector<double> values);

}  // namespace perfbench
