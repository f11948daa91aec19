#ifndef MWSIBE_UTIL_PARALLEL_H_
#define MWSIBE_UTIL_PARALLEL_H_

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace mws::util {

/// Runs fn(i) exactly once for every i in [0, n) and returns when all
/// calls have finished. The calls run on min(n, hardware threads)
/// threads, the calling thread among them; each thread claims one index
/// at a time, so uneven items balance. For n <= 1, or on a one-thread
/// host, every call runs on the calling thread and no thread starts.
///
/// The helper threads run at idle priority (SCHED_IDLE, where the host
/// has it): the scheduler gives them only the CPU that normal threads
/// leave over, so a fan-out here barely delays another request's
/// thread. The calling thread keeps its policy and claims indexes like
/// the helpers, so a batch completes even when no helper gets a core.
/// Once the indexes run out, the caller waits for at most one in-flight
/// item per helper; blocking in that join frees the caller's core for
/// such an item.
///
/// `fn` must be safe to call concurrently for distinct indexes, as when
/// each call writes only its own output slot. If a call throws, the
/// remaining unclaimed indexes are skipped and the first exception is
/// rethrown here, after every thread has finished.
template <typename Fn>
void ParallelFor(size_t n, Fn&& fn) {
  const size_t threads = std::min<size_t>(
      n, std::max(1u, std::thread::hardware_concurrency()));
  if (threads <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  auto work = [&] {
    try {
      for (size_t i = next++; i < n; i = next++) fn(i);
    } catch (...) {
      next = n;
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  };
  auto helper = [&] {
#ifdef SCHED_IDLE
    // If the host refuses, the helper runs at the caller's priority.
    sched_param param{};
    param.sched_priority = 0;
    pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
#endif
    work();
  };
  {
    std::vector<std::jthread> workers;  // each joins when destroyed
    workers.reserve(threads - 1);
    for (size_t t = 1; t < threads; ++t) workers.emplace_back(helper);
    work();
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace mws::util

#endif  // MWSIBE_UTIL_PARALLEL_H_
