#ifndef DNSTTL_PAR_POOL_H
#define DNSTTL_PAR_POOL_H

#include <array>
#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace dnsttl::par {

/// Number of hardware threads (never zero).
std::size_t hardware_jobs() noexcept;

/// Default worker count for `--jobs`: the DNSTTL_JOBS environment variable
/// when set to a positive integer, otherwise hardware_jobs().
std::size_t default_jobs() noexcept;

/// Fixed shard count for a workload of @p items independent units.
///
/// The shard count is a pure function of the WORKLOAD, never of the
/// machine: the same items always produce the same shards, so per-shard
/// RNG streams (`Rng::fork(shard)`) and the ordered merge yield
/// byte-identical output at any `--jobs N`.  Roughly one shard per 256
/// items, clamped to [1, 16].
std::size_t shard_count_for(std::size_t items) noexcept;

/// Runs fn(shard) for every shard in [0, shards) on min(jobs, shards)
/// threads, which claim shard indices in ascending order.  `jobs <= 1`
/// runs every shard inline on the calling thread, in index order — the
/// reference serial schedule.
///
/// Shards must be independent: they may not touch shared mutable state
/// (give each shard its own World/Simulation/cache and merge afterwards).
/// If any shards throw, every shard still runs to completion (or failure)
/// and then the exception of the LOWEST-indexed failing shard is rethrown,
/// so error reporting is as deterministic as success output.
void parallel_for_shards(std::size_t shards, std::size_t jobs,
                         const std::function<void(std::size_t)>& fn);

/// Deterministic parallel map: runs map(shard) for each shard (see
/// parallel_for_shards) and returns the results indexed by shard.
template <typename MapFn>
auto map_shards(std::size_t shards, std::size_t jobs, MapFn map)
    -> std::vector<decltype(map(std::size_t{}))> {
  using R = decltype(map(std::size_t{}));
  std::vector<std::optional<R>> slots(shards);
  parallel_for_shards(shards, jobs,
                      [&](std::size_t shard) { slots[shard].emplace(map(shard)); });
  std::vector<R> results;
  results.reserve(shards);
  for (auto& slot : slots) {
    results.push_back(std::move(*slot));
  }
  return results;
}

/// Deterministic parallel grid: calls fn(a, b, ...) once per point of the
/// cartesian product of @p axes (each a vector or array), first axis
/// slowest, on up to @p jobs threads, and returns the results in that
/// row-major order.  The contract is map_shards': each point must own its
/// World, cache and RNG fork, so the result is byte-identical at any job
/// count, and the exception of the lowest-indexed failing point is
/// rethrown.  An empty axis yields an empty result.
template <typename Fn, typename... Axes>
auto map_grid(std::size_t jobs, Fn fn, const Axes&... axes) {
  static_assert(sizeof...(Axes) > 0, "map_grid needs at least one axis");
  const std::array<std::size_t, sizeof...(Axes)> sizes{axes.size()...};
  std::size_t points = 1;
  for (std::size_t size : sizes) {
    points *= size;
  }
  return map_shards(points, jobs, [&](std::size_t point) {
    std::array<std::size_t, sizeof...(Axes)> index{};
    for (std::size_t axis = sizes.size(); axis-- > 0;) {
      index[axis] = point % sizes[axis];
      point /= sizes[axis];
    }
    return [&]<std::size_t... I>(std::index_sequence<I...>) {
      return fn(axes[index[I]]...);
    }(std::index_sequence_for<Axes...>{});
  });
}

}  // namespace dnsttl::par

#endif  // DNSTTL_PAR_POOL_H
