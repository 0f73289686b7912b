// analyze-as: src/core/fixture.cc
// True positives: static-storage mutable state is shared across par::
// shards, and static SoA-pool and timer-wheel aliases dangle across shard
// rebuilds even when const.

namespace dnsttl::core {

unsigned long g_query_tally = 0;  // expect: shared-mutable-in-shard

int cached() {
  static std::vector<int> cache;  // expect: shared-mutable-in-shard
  return static_cast<int>(cache.size());
}

int pool_alias(const atlas::VpPool& pool) {
  static const atlas::VpPool* last = nullptr;  // expect: shared-mutable-in-shard
  return last == &pool ? 1 : 0;
}

const sim::TimerWheel& g_wheel = instance();  // expect: shared-mutable-in-shard

// True negatives: immutable tables, thread-local scratch, locals.
constexpr int kShardFanout = 8;
const std::array<int, 3> kWeights = {1, 2, 3};

int scratch_user() {
  static thread_local int scratch = 0;
  return ++scratch;
}

int local_user() {
  int local = 0;
  return ++local;
}

}  // namespace dnsttl::core
