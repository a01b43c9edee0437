// Thread helpers. The paper pins one server thread per core (§5, §6.1);
// pin_to_cpu pins modulo the available CPU count. parallel_for runs
// recovery's per-file and per-partition work on several threads.

#ifndef MASSTREE_UTIL_THREAD_H_
#define MASSTREE_UTIL_THREAD_H_

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace masstree {

// Best-effort pinning of the calling thread to a CPU. Returns true on success.
inline bool pin_to_cpu(unsigned cpu_index) {
  unsigned n = std::thread::hardware_concurrency();
  if (n == 0) {
    return false;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu_index % n, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

inline unsigned hardware_threads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

// Runs task(i) for every i in [0, ntasks) on min(ntasks, nthreads)
// threads (at least one), each taking the next unstarted index. A thread
// whose task throws starts no further tasks; the first exception is
// rethrown here after every thread has joined, so a worker's error reaches
// the caller instead of ending the process through std::terminate.
template <typename F>
void parallel_for(size_t ntasks, unsigned nthreads, F&& task) {
  std::atomic<size_t> next{0};
  std::mutex fail_mu;
  std::exception_ptr failed;
  size_t n = std::min<size_t>(std::max(1u, nthreads), ntasks);
  std::vector<std::thread> workers;
  workers.reserve(n);
  for (size_t t = 0; t < n; ++t) {
    workers.emplace_back([&] {
      try {
        for (size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < ntasks;) {
          task(i);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(fail_mu);
        if (!failed) {
          failed = std::current_exception();
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  if (failed) {
    std::rethrow_exception(failed);
  }
}

}  // namespace masstree

#endif  // MASSTREE_UTIL_THREAD_H_
