#include "core/sharded.h"

#include <utility>

#include "par/pool.h"

namespace dnsttl::core {

EnvFactory make_env_factory(World::Options options, atlas::PlatformSpec spec) {
  return [options, spec] {
    ShardEnv env;
    env.world = std::make_unique<World>(options);
    env.platform = std::make_unique<atlas::Platform>(atlas::Platform::build(
        env.world->network(), env.world->hints(), env.world->root_zone(), spec,
        env.world->rng()));
    return env;
  };
}

std::vector<atlas::MeasurementRun> run_sharded_script(
    const EnvFactory& factory, std::size_t shard_count, std::size_t jobs,
    const ShardScript& script) {
  auto per_shard =
      par::map_shards(shard_count, jobs, [&](std::size_t shard) {
        ShardEnv env = factory();
        return script(env, shard, shard_count);
      });
  if (per_shard.empty()) {
    return {};
  }

  const std::size_t phases = per_shard.front().size();
  std::vector<atlas::MeasurementRun> merged;
  merged.reserve(phases);
  for (std::size_t phase = 0; phase < phases; ++phase) {
    std::vector<atlas::MeasurementRun> shard_runs;
    shard_runs.reserve(per_shard.size());
    for (auto& runs : per_shard) {
      shard_runs.push_back(std::move(runs[phase]));
    }
    auto spec = shard_runs.front().spec();
    merged.push_back(
        atlas::MeasurementRun::merge(std::move(spec), std::move(shard_runs)));
  }
  return merged;
}

BailiwickResult run_bailiwick_sharded(const EnvFactory& factory,
                                      const BailiwickConfig& config,
                                      std::size_t shard_count,
                                      std::size_t jobs) {
  auto shards = par::map_shards(shard_count, jobs, [&](std::size_t shard) {
    ShardEnv env = factory();
    BailiwickConfig shard_config = config;
    shard_config.shard_count = shard_count;
    shard_config.shard_index = shard;
    return run_bailiwick(*env.world, *env.platform, shard_config);
  });

  if (shards.size() == 1) {
    return std::move(shards.front());
  }

  auto spec = shards.front().run.spec();
  std::vector<atlas::MeasurementRun> runs;
  runs.reserve(shards.size());
  for (auto& shard : shards) {
    runs.push_back(std::move(shard.run));
  }
  BailiwickResult merged{
      atlas::MeasurementRun::merge(std::move(spec), std::move(runs)),
      stats::BinnedSeries{10 * sim::kMinute},
      {}};
  for (auto& shard : shards) {
    merged.series.merge(shard.series);
    for (auto& [key, vp] : shard.vps) {
      merged.vps.emplace(key, std::move(vp));
    }
  }
  return merged;
}

}  // namespace dnsttl::core
