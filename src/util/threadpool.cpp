#include "util/threadpool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <stdexcept>

#include "obs/obs.h"

namespace con::util {

namespace {

std::mutex g_config_mu;
std::size_t g_requested_threads = 0;  // 0 = hardware concurrency
bool g_created = false;
std::size_t g_created_size = 0;

// Ceiling on the pool size: guards against nonsense like `--threads -1`
// wrapping to SIZE_MAX and exhausting the process at thread creation.
constexpr std::size_t kMaxThreads = 256;

std::size_t resolve_threads(std::size_t n) {
  if (n == 0) n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::min(n, kMaxThreads);
}

std::size_t consume_global_size() {
  std::lock_guard<std::mutex> lock(g_config_mu);
  g_created = true;
  g_created_size = resolve_threads(g_requested_threads);
  return g_created_size;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] {
      // Register the worker's trace ring up front under a stable name, so
      // pool threads show up labelled in exports even before their first
      // span — and their rings outlive the pool (obs keeps them), so no
      // flush is needed at shutdown.
      obs::set_thread_name("pool-" + std::to_string(i));
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    // A throwing task must not skip the in-flight decrement below, or
    // wait_idle() deadlocks and the worker thread dies. Exceptions from
    // parallel_for bodies are captured by parallel_for itself; anything
    // escaping a bare submit() is dropped here by design.
    try {
      task();
    } catch (...) {
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(consume_global_size());
  return pool;
}

void ThreadPool::set_global_threads(std::size_t n) {
  std::lock_guard<std::mutex> lock(g_config_mu);
  const std::size_t resolved = resolve_threads(n);
  if (g_created) {
    if (g_created_size != resolved) {
      throw std::logic_error(
          "ThreadPool::set_global_threads: global pool already created with "
          "a different size");
    }
    return;
  }
  g_requested_threads = resolved;
}

namespace {

// Shared state of one parallel_for call. Held by shared_ptr so helper
// tasks that start after the caller already returned (e.g. when another
// thread drained the whole range first) touch valid memory.
struct ParallelJob {
  // May reference the caller's function object: any drain that reaches it
  // claimed work first, and the caller only returns once every item is
  // accounted for, so the referenced object is still alive.
  std::function<void(std::size_t, std::size_t)> fn;
  std::size_t end = 0;
  std::size_t chunk = 1;
  std::atomic<std::size_t> next{0};
  // Completion is counted in processed (or cancelled) ITEMS, not helper
  // tasks: helpers that never get scheduled simply find no work, and the
  // caller's own draining guarantees progress even when every pool worker
  // is blocked in a nested parallel_for.
  std::atomic<std::size_t> remaining{0};
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::mutex err_mu;
  std::exception_ptr error;
};

void job_account(ParallelJob& job, std::size_t items) {
  if (items == 0) return;
  if (job.remaining.fetch_sub(items) == items) {
    std::lock_guard<std::mutex> lock(job.done_mu);
    job.done_cv.notify_all();
  }
}

void job_drain(ParallelJob& job) {
  for (;;) {
    const std::size_t lo = job.next.fetch_add(job.chunk);
    if (lo >= job.end) return;
    const std::size_t hi = std::min(lo + job.chunk, job.end);
    try {
      job.fn(lo, hi);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(job.err_mu);
        if (!job.error) job.error = std::current_exception();
      }
      // Cancel the unclaimed remainder of the range. Chunks claimed
      // concurrently are accounted for by their claimants, so only
      // [old, end) is ours to retire.
      const std::size_t old = job.next.exchange(job.end);
      const std::size_t cancelled = old < job.end ? job.end - old : 0;
      job_account(job, (hi - lo) + cancelled);
      continue;
    }
    job_account(job, hi - lo);
  }
}

}  // namespace

void parallel_for_ranges(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t grain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  ThreadPool& pool = ThreadPool::global();
  if (pool.size() <= 1 || n <= grain) {
    fn(begin, end);
    return;
  }

  // conlint:allow(hot-path-alloc): one shared control block per parallel region, amortised over the whole index range
  auto job = std::make_shared<ParallelJob>();
  job->fn = [&fn, begin](std::size_t lo, std::size_t hi) {
    fn(begin + lo, begin + hi);
  };
  job->end = n;
  job->chunk = std::max<std::size_t>(
      grain, (n + pool.size() * 4 - 1) / (pool.size() * 4));
  job->remaining.store(n);

  const std::size_t helpers =
      std::min(pool.size(), (n + job->chunk - 1) / job->chunk);
  for (std::size_t h = 1; h < helpers; ++h) {
    pool.submit([job] { job_drain(*job); });
  }
  // The caller participates instead of blocking on pool capacity, which
  // makes nested parallel_for calls deadlock-free.
  job_drain(*job);

  {
    std::unique_lock<std::mutex> lock(job->done_mu);
    job->done_cv.wait(lock,
                      [&] { return job->remaining.load() == 0; });
  }
  if (job->error) std::rethrow_exception(job->error);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain) {
  parallel_for_ranges(
      begin, end,
      [&fn](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      },
      grain);
}

}  // namespace con::util
