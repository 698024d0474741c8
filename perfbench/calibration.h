// Host-speed calibration. The machine this benchmark was tuned on shares
// its cores with other tenants, and its speed drifts by tens of percent
// within seconds and over minutes. Each run therefore interleaves a fixed
// calibration kernel with the workload and reports times normalised to
// the kernel's reference speed:
//
//   reported = measured * kReferenceMs / median(kernel samples near it)
//
// where "near" is within one second of the measurement (at least the
// four nearest samples).
//
// The kernel is the benchmark's own code and never changes with the
// library, so a library change moves reported times exactly as it moves
// measured ones; only the machine's drift cancels. It mimics the
// library's hot path (an 8-way LRU set-associative cache model driven by
// a mixed sequential/random line stream, plus a data read per access) on
// 640 KiB of state that fits the core's private L2. An untimed pass
// re-warms that state before every timed one, so a sample measures the
// core's speed and not the cache contents the workload left behind.

#ifndef RELFAB_PERFBENCH_CALIBRATION_H_
#define RELFAB_PERFBENCH_CALIBRATION_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "perfbench/harness.h"

namespace relfab::perfbench {

class Calibration {
 public:
  /// Kernel time, in ms, that reported times are normalised to: about
  /// the median sample of quiet runs on the 4-core Xeon (Sapphire
  /// Rapids, KVM guest) the benchmark was tuned on.
  static constexpr double kReferenceMs = 6.0;

  Calibration()
      : tags_(kSets * kWays, ~0ull), stamps_(kSets * kWays, 0),
        data_(kDataWords) {
    for (size_t i = 0; i < data_.size(); ++i) {
      data_[i] = static_cast<uint32_t>(i * 2654435761u);
    }
  }

  /// Re-warms the kernel's state, then runs and times one pass.
  void Sample() {
    sink_ += Kernel(kWarmAccesses);
    const int64_t start = NowNs();
    sink_ += Kernel(kTimedAccesses);
    const int64_t end = NowNs();
    samples_.push_back({end, static_cast<double>(end - start) / 1e6});
  }

  /// Samples since the last Reset and their median in ms.
  size_t samples() const { return samples_.size(); }
  double MedianMs() const {
    std::vector<double> ms;
    for (const auto& [t, v] : samples_) ms.push_back(v);
    return Median(ms);
  }

  /// kReferenceMs / the median of the samples taken within kWindowNs of
  /// host time `t_ns` (NowNs clock), or of the kMinNear samples nearest
  /// to it when fewer fall in the window.
  double FactorAt(int64_t t_ns) const {
    if (samples_.empty()) return 1.0;
    auto by_time = [](const std::pair<int64_t, double>& s, int64_t t) {
      return s.first < t;
    };
    size_t lo = static_cast<size_t>(
        std::lower_bound(samples_.begin(), samples_.end(), t_ns - kWindowNs,
                         by_time) -
        samples_.begin());
    size_t hi = static_cast<size_t>(
        std::lower_bound(samples_.begin(), samples_.end(), t_ns + kWindowNs,
                         by_time) -
        samples_.begin());
    while (hi - lo < kMinNear && (lo > 0 || hi < samples_.size())) {
      // Widen toward whichever neighbour is closer in time.
      if (hi == samples_.size() ||
          (lo > 0 && t_ns - samples_[lo - 1].first <
                         samples_[hi].first - t_ns)) {
        --lo;
      } else {
        ++hi;
      }
    }
    std::vector<double> ms;
    for (size_t i = lo; i < hi; ++i) ms.push_back(samples_[i].second);
    return kReferenceMs / Median(ms);
  }

  void Reset() { samples_.clear(); }

 private:
  static constexpr uint64_t kSets = 4096;
  static constexpr int kWays = 8;
  static constexpr size_t kDataWords = size_t{1} << 16;  // 256 KiB
  static constexpr uint64_t kWarmAccesses = 100000;
  static constexpr uint64_t kTimedAccesses = 250000;
  static constexpr int64_t kWindowNs = 1'000'000'000;
  static constexpr size_t kMinNear = 4;

  uint64_t Kernel(uint64_t accesses) {
    uint64_t hits = 0;
    uint64_t x = 88172645463325252ull;
    uint64_t seq = 0;
    for (uint64_t i = 0; i < accesses; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const uint64_t line = (i & 3) != 0 ? seq++ : x % (uint64_t{1} << 20);
      const uint64_t set = line % kSets;
      const uint64_t tag = line / kSets;
      uint64_t* t = &tags_[set * kWays];
      uint32_t* s = &stamps_[set * kWays];
      int hit = -1;
      int lru = 0;
      for (int w = 0; w < kWays; ++w) {
        if (t[w] == tag) hit = w;
        if (s[w] < s[lru]) lru = w;
      }
      ++clock_;
      if (hit >= 0) {
        ++hits;
        s[hit] = clock_;
      } else {
        t[lru] = tag;
        s[lru] = clock_;
      }
      hits += data_[(line * 16) % data_.size()] & 1;
    }
    return hits;
  }

  std::vector<uint64_t> tags_;
  std::vector<uint32_t> stamps_;
  std::vector<uint32_t> data_;
  uint32_t clock_ = 0;
  uint64_t sink_ = 0;  // the kernel's result, kept so it is computed
  std::vector<std::pair<int64_t, double>> samples_;  // (end ns, ms)
};

}  // namespace relfab::perfbench

#endif  // RELFAB_PERFBENCH_CALIBRATION_H_
