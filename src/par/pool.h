#ifndef DNSTTL_PAR_POOL_H
#define DNSTTL_PAR_POOL_H

#include <array>
#include <cstddef>
#include <functional>
#include <mutex>
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
/// RNG streams (`Rng::fork(shard)`) and the ordered fold yield
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

/// Deterministic streaming fold: runs map(shard) for every shard (see
/// parallel_for_shards) and fold(shard, result) once per shard in shard
/// order, as soon as every lower shard is folded.  At `jobs <= 1` each
/// shard is mapped and folded before the next starts; otherwise the worker
/// that finishes the lowest unfolded shard folds it and every finished
/// shard after it, one fold at a time under a lock, so only results that
/// finished ahead of a slower lower shard wait.  A failing map or fold
/// stops folding at its index; every shard still runs, and the
/// lowest-indexed failure is rethrown.
template <typename MapFn, typename FoldFn>
void fold_shards(std::size_t shards, std::size_t jobs, MapFn map,
                 FoldFn fold) {
  using R = decltype(map(std::size_t{}));
  std::vector<std::optional<R>> ahead(shards);  // mapped, not yet folded
  std::mutex mutex;
  std::size_t next = 0;  // the lowest unfolded shard; a map's throw pins it
  parallel_for_shards(shards, jobs, [&](std::size_t shard) {
    R result = map(shard);
    std::lock_guard lock(mutex);
    if (shard != next) {
      ahead[shard].emplace(std::move(result));
      return;
    }
    // A fold's throw leaves through this shard's call, and every shard up
    // to the failing one mapped cleanly, so it is the lowest failure.
    try {
      fold(shard, std::move(result));
      while (++next < shards && ahead[next]) {
        fold(next, std::move(*ahead[next]));
        ahead[next].reset();
      }
    } catch (...) {
      next = shards;  // fold nothing more
      throw;
    }
  });
}

/// Deterministic parallel map: runs map(shard) for each shard (see
/// fold_shards) and returns the results indexed by shard.
template <typename MapFn>
auto map_shards(std::size_t shards, std::size_t jobs, MapFn map)
    -> std::vector<decltype(map(std::size_t{}))> {
  using R = decltype(map(std::size_t{}));
  std::vector<R> results;
  results.reserve(shards);
  fold_shards(shards, jobs, std::move(map),
              [&results](std::size_t, R&& result) {
                results.push_back(std::move(result));
              });
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
