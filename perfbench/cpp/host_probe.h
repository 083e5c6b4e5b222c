#ifndef PERFBENCH_HOST_PROBE_H_
#define PERFBENCH_HOST_PROBE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

/// Measures how fast the host runs while the benchmark runs, so timings
/// can be reported at one reference speed. On a shared virtual machine the
/// speed of a vCPU drifts: a fixed loop can take 2.5x longer from one
/// minute to the next, with no steal time or run-queue wait showing in the
/// guest, and the benchmark's wall-clock timings follow it. One thread per
/// CPU of the process's affinity mask, pinned to that CPU, times a fixed
/// pass over a 2 MiB buffer every kPeriod: its time depends on the core
/// and on the caches and memory, as tabulard's request path does.
class HostProbe {
 public:
  using Clock = std::chrono::steady_clock;

  /// The pass's time on the host the reference speed stands for: the
  /// 4-vCPU virtual machine described in README.md, when it ran at its
  /// usual speed.
  static constexpr double kReferenceUs = 375.0;

  /// Starts the probe threads.
  HostProbe();
  /// Stops and joins them.
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// The mean time of the pass over all CPUs' samples that ended in
  /// [from, to], divided by kReferenceUs: 2 means the host ran at half the
  /// reference speed. A timing divided by it (a rate multiplied by it) is
  /// at the reference speed. 1 when the interval holds no sample.
  double Slowdown(Clock::time_point from, Clock::time_point to) const;

 private:
  struct Sample {
    Clock::time_point end;
    double us = 0;
  };

  void Loop(int cpu);

  std::atomic<uint64_t> checksum_{0};
  mutable std::mutex mu_;
  std::condition_variable wake_;
  std::vector<Sample> samples_;  // guarded by mu_
  bool stop_ = false;            // guarded by mu_
  std::vector<std::thread> threads_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_PROBE_H_
