#include "host_speed.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <queue>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

/// The fixed reference memory work: shuffle a 2^20-entry successor array into a
/// random permutation, then chase it for 2^17 steps while keeping a bounded
/// binary heap of pseudo-random keys. Deterministic; returns a checksum so
/// the work cannot be optimised away.
std::uint64_t memory_kernel(std::vector<std::uint32_t>& next) {
  constexpr std::size_t kNodes = std::size_t{1} << 20;
  constexpr int kSteps = 1 << 17;
  constexpr std::size_t kHeapBound = std::size_t{1} << 15;
  next.resize(kNodes);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto random = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint32_t i = 0; i < kNodes; ++i) next[i] = i;
  for (std::size_t i = kNodes - 1; i > 0; --i) std::swap(next[i], next[random() % (i + 1)]);
  std::priority_queue<std::pair<std::uint64_t, std::uint32_t>> heap;
  std::uint32_t at = 0;
  std::uint64_t sum = 0;
  for (int step = 0; step < kSteps; ++step) {
    at = next[at];
    heap.emplace(random() % 1000003, at);
    if (heap.size() > kHeapBound) {
      sum += heap.top().second;
      heap.pop();
    }
  }
  return sum + at;
}

/// The fixed reference compute work: for a 96 x 10 cost matrix, the cheapest
/// subset of columns when each row takes its cheapest chosen column plus a
/// per-column charge, by enumerating all 1023 subsets, 20 times over.
std::uint64_t compute_kernel() {
  constexpr std::size_t kRows = 96, kCols = 10;
  std::array<std::array<double, kCols>, kRows> cost{};
  std::uint64_t x = 0x2545f4914f6cdd1dull;
  for (auto& row : cost) {
    for (double& c : row) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      c = static_cast<double>(x % 1000) / 10.0;
    }
  }
  std::uint64_t picks = 0;
  for (int round = 0; round < 20; ++round) {
    double best = 1e300;
    std::uint32_t best_mask = 0;
    for (std::uint32_t mask = 1; mask < (1u << kCols); ++mask) {
      double total = 25.0 * round * static_cast<double>(std::popcount(mask));
      for (const auto& row : cost) {
        double cheapest = 1e300;
        for (std::size_t c = 0; c < kCols; ++c) {
          if ((mask >> c) & 1u) cheapest = std::min(cheapest, row[c]);
        }
        total += cheapest;
      }
      if (total < best) {
        best = total;
        best_mask = mask;
      }
    }
    picks += best_mask;
  }
  return picks;
}

}  // namespace

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void HostSpeed::sample(bool force) {
  if (!force && samples() > 0 && seconds_since(last_) < kIntervalSeconds) return;
  const auto time = [this](std::size_t k, auto&& kernel) {
    const auto start = Clock::now();
    checksum_ += kernel();
    seconds_[k].push_back(seconds_since(start));
  };
  time(0, [this] { return memory_kernel(buffer_); });
  time(1, compute_kernel);
  last_ = Clock::now();
}

double HostSpeed::median_seconds(std::size_t k) const { return median(seconds_[k]); }

double HostSpeed::factor() const {
  return std::sqrt(kReferenceSeconds[0] / median_seconds(0) *
                   kReferenceSeconds[1] / median_seconds(1));
}

}  // namespace perfbench
