#include "core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "core/trace.hpp"

namespace icsc::core {

namespace {

thread_local bool t_force_serial = false;
thread_local bool t_in_worker = false;

std::size_t env_thread_count() {
  if (const char* env = std::getenv("ICSC_THREADS")) {
    char* end = nullptr;
    const long value = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && value >= 1) {
      return static_cast<std::size_t>(value);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  std::size_t concurrency() {
    std::lock_guard<std::mutex> lock(config_mutex_);
    return workers_.size() + 1;
  }

  void configure(std::size_t total_threads) {
    std::lock_guard<std::mutex> lock(config_mutex_);
    if (total_threads == 0) total_threads = env_thread_count();
    shutdown_locked();
    spawn_locked(total_threads - 1);
  }

  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      queue_.push_back(std::move(task));
    }
    queue_cv_.notify_one();
  }

  ~ThreadPool() {
    std::lock_guard<std::mutex> lock(config_mutex_);
    shutdown_locked();
  }

 private:
  ThreadPool() { spawn_locked(env_thread_count() - 1); }

  void spawn_locked(std::size_t worker_count) {
    workers_.reserve(worker_count);
    for (std::size_t i = 0; i < worker_count; ++i) {
      workers_.emplace_back([this] { worker_main(); });
    }
  }

  void shutdown_locked() {
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      stop_ = true;
    }
    queue_cv_.notify_all();
    for (auto& worker : workers_) worker.join();
    workers_.clear();
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stop_ = false;
    // Pending helper tasks are optional (the issuing loop completes all
    // iterations itself); drop them.
    queue_.clear();
  }

  void worker_main() {
    t_in_worker = true;
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(queue_mutex_);
        queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (stop_ && queue_.empty()) return;
        if (queue_.empty()) continue;
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  std::mutex config_mutex_;  // guards workers_ (re)configuration
  std::vector<std::thread> workers_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

/// State shared between the caller and its helper tasks. Held by
/// shared_ptr so a helper that dequeues late (after the loop finished and
/// the caller moved on) finds the cursor exhausted and exits harmlessly.
struct LoopState {
  std::size_t begin = 0;
  std::size_t count = 0;
  std::size_t grain = 1;
  const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex mutex;
  std::condition_variable done_cv;
  std::size_t completed = 0;        // guarded by mutex
  std::exception_ptr error;         // guarded by mutex; first thrower wins
};

void drain_chunks(const std::shared_ptr<LoopState>& state) {
  for (;;) {
    const std::size_t i =
        state->next.fetch_add(state->grain, std::memory_order_relaxed);
    if (i >= state->count) return;
    const std::size_t chunk_begin = state->begin + i;
    const std::size_t chunk_end =
        state->begin + std::min(state->count, i + state->grain);
    if (!state->failed.load(std::memory_order_acquire)) {
      try {
        (*state->fn)(chunk_begin, chunk_end);
      } catch (...) {
        state->failed.store(true, std::memory_order_release);
        std::lock_guard<std::mutex> lock(state->mutex);
        if (!state->error) state->error = std::current_exception();
      }
    }
    std::lock_guard<std::mutex> lock(state->mutex);
    state->completed += chunk_end - chunk_begin;
    if (state->completed == state->count) state->done_cv.notify_all();
  }
}

}  // namespace

std::size_t parallel_threads() { return ThreadPool::instance().concurrency(); }

void set_parallel_threads(std::size_t total_threads) {
  ThreadPool::instance().configure(total_threads);
}

ScopedSerial::ScopedSerial() : previous_(t_force_serial) {
  t_force_serial = true;
}

ScopedSerial::~ScopedSerial() { t_force_serial = previous_; }

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const std::size_t count = end - begin;
  ICSC_TRACE_COUNT("parallel.loops", 1);
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t threads =
      (t_force_serial || t_in_worker) ? 1 : pool.concurrency();
  if (threads == 1 || count <= grain) {
    fn(begin, end);
    return;
  }

  auto state = std::make_shared<LoopState>();
  state->begin = begin;
  state->count = count;
  state->grain = grain;
  state->fn = &fn;

  const std::size_t chunks = (count + grain - 1) / grain;
  const std::size_t helpers = std::min(threads - 1, chunks - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.submit([state] { drain_chunks(state); });
  }
  drain_chunks(state);

  std::unique_lock<std::mutex> lock(state->mutex);
  state->done_cv.wait(lock, [&] { return state->completed == count; });
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace icsc::core
