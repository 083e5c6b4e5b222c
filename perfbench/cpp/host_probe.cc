#include "host_probe.h"

#include <pthread.h>
#include <sched.h>

namespace perfbench {

namespace {

constexpr auto kPeriod = std::chrono::milliseconds(25);
constexpr size_t kBufferWords = size_t{1} << 18;  // 2 MiB of uint64_t

/// A prefix sum in place: each step reads and writes the buffer and
/// depends on the previous one, so the compiler can neither fold nor
/// vectorize it.
uint64_t ProbePass(std::vector<uint64_t>& buffer) {
  uint64_t sum = 0;
  for (uint64_t& word : buffer) {
    sum += word;
    word = sum;
  }
  return sum;
}

}  // namespace

HostProbe::HostProbe() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) {
      threads_.emplace_back([this, cpu] { Loop(cpu); });
    }
  }
}

HostProbe::~HostProbe() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void HostProbe::Loop(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
  std::vector<uint64_t> buffer(kBufferWords, 1);
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    lock.unlock();
    const Clock::time_point t0 = Clock::now();
    const uint64_t sum = ProbePass(buffer);
    const Clock::time_point t1 = Clock::now();
    // The pass's result is stored, so the compiler cannot drop the pass.
    checksum_.fetch_xor(sum, std::memory_order_relaxed);
    lock.lock();
    samples_.push_back(
        {t1, std::chrono::duration<double, std::micro>(t1 - t0).count()});
    wake_.wait_for(lock, kPeriod, [&] { return stop_; });
  }
}

double HostProbe::Slowdown(Clock::time_point from, Clock::time_point to) const {
  std::lock_guard<std::mutex> lock(mu_);
  double sum = 0;
  size_t n = 0;
  for (const Sample& s : samples_) {
    if (s.end < from || s.end > to) continue;
    sum += s.us;
    ++n;
  }
  return n == 0 ? 1.0 : sum / static_cast<double>(n) / kReferenceUs;
}

}  // namespace perfbench
