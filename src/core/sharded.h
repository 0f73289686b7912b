#ifndef DNSTTL_CORE_SHARDED_H
#define DNSTTL_CORE_SHARDED_H

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "atlas/measurement.h"
#include "atlas/platform.h"
#include "core/bailiwick_experiment.h"
#include "core/world.h"

namespace dnsttl::core {

/// One shard's private replica of the simulated Internet.  Deterministic
/// parallelism here works by replication, not by locking: every shard
/// builds an identical world (same seed → same platform, same RNG draws)
/// and measures only its slice of the probes, so threads share nothing and
/// the merged output is a pure function of the workload.
struct ShardEnv {
  std::unique_ptr<World> world;
  std::unique_ptr<atlas::Platform> platform;
};

/// Builds one shard's environment.  Must be deterministic: every call has
/// to produce an identical env, or shards diverge and the merged output
/// stops being independent of the shard/job split.
using EnvFactory = std::function<ShardEnv()>;

/// The canonical factory — a World(options) plus Platform::build(spec) fed
/// from the world's RNG, the setup every experiment driver starts from.
EnvFactory make_env_factory(World::Options options, atlas::PlatformSpec spec);

/// Per-shard experiment body: given a private env and this shard's
/// (index, count), stand up zones, run the phases, and return one
/// MeasurementRun per phase.  Every shard must return the same number of
/// phases, and must thread shard_index/shard_count into each
/// MeasurementSpec it executes — that is what restricts it to its probe
/// slice.
using ShardScript = std::function<std::vector<atlas::MeasurementRun>(
    ShardEnv& env, std::size_t shard_index, std::size_t shard_count)>;

/// Runs @p script on @p shard_count identical envs using up to @p jobs
/// threads, then merges the shard runs phase-by-phase strictly in
/// shard-index order.  The result depends only on (factory, script,
/// shard_count); jobs just bounds how many shards are in flight at once.
std::vector<atlas::MeasurementRun> run_sharded_script(
    const EnvFactory& factory, std::size_t shard_count, std::size_t jobs,
    const ShardScript& script);

/// Sharded run_bailiwick: each shard builds the full cachetest.net testbed
/// in its own world and measures its probe slice; series bins are summed
/// and VP maps unioned (keys are probe-disjoint across shards) in shard
/// order.
BailiwickResult run_bailiwick_sharded(const EnvFactory& factory,
                                      const BailiwickConfig& config,
                                      std::size_t shard_count,
                                      std::size_t jobs);

}  // namespace dnsttl::core

#endif  // DNSTTL_CORE_SHARDED_H
