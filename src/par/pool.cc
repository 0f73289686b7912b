#include "par/pool.h"

#include <cstdlib>

namespace dnsttl::par {

std::size_t hardware_jobs() noexcept {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

std::size_t default_jobs() noexcept {
  // DNSTTL_JOBS only selects the worker count, which never changes output.
  if (const char* env = std::getenv("DNSTTL_JOBS")) {
    char* end = nullptr;
    unsigned long value = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && value > 0 && value < 4096) {
      return static_cast<std::size_t>(value);
    }
  }
  return hardware_jobs();
}

std::size_t shard_count_for(std::size_t items) noexcept {
  // Sixteen shards keep every core of a large machine busy while bounding
  // the per-shard replicas a workload builds.
  constexpr std::size_t kMaxShards = 16;
  std::size_t shards = items / 256;
  if (shards < 1) {
    shards = 1;
  }
  return shards > kMaxShards ? kMaxShards : shards;
}

Pool::Pool(std::size_t workers) {
  if (workers == 0) {
    workers = 1;
  }
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Pool::~Pool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void Pool::submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_ready_.notify_one();
}

void Pool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

void Pool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping_ and drained
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
    }
    task();  // exceptions are the submitter's contract; see parallel_for_shards
    {
      std::unique_lock<std::mutex> lock(mutex_);
      --running_;
      if (queue_.empty() && running_ == 0) {
        all_done_.notify_all();
      }
    }
  }
}

void parallel_for_shards(std::size_t shards, std::size_t jobs,
                         const std::function<void(std::size_t)>& fn) {
  if (shards == 0) {
    return;
  }
  std::vector<std::exception_ptr> errors(shards);
  if (jobs <= 1 || shards == 1) {
    // Same contract as the pooled path: every shard runs even when an
    // earlier one throws, and the lowest-indexed failure is rethrown.
    for (std::size_t shard = 0; shard < shards; ++shard) {
      try {
        fn(shard);
      } catch (...) {
        errors[shard] = std::current_exception();
      }
    }
  } else {
    Pool pool(jobs < shards ? jobs : shards);
    for (std::size_t shard = 0; shard < shards; ++shard) {
      pool.submit([&fn, &errors, shard] {
        try {
          fn(shard);
        } catch (...) {
          errors[shard] = std::current_exception();
        }
      });
    }
    pool.wait_idle();
  }
  for (const auto& error : errors) {  // lowest failing shard wins: deterministic
    if (error) {
      std::rethrow_exception(error);
    }
  }
}

}  // namespace dnsttl::par
