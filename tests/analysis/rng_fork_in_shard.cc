// analyze-as: src/core/fixture.cc
// True positives: par:: shard bodies drawing from captured streams — the
// result then depends on shard scheduling.  A direct captured draw, a
// renamed local copy (no fork) and a map_grid point body are violations.

namespace dnsttl::core {

void captured_draw(sim::Rng& rng, std::size_t shards, std::size_t jobs) {
  par::map_shards(shards, jobs, [&](std::size_t shard) {
    return rng.uniform();  // expect: rng-fork-in-shard
  });
}

void unforked_copy(const sim::Rng& nl_src, std::size_t shards,
                   std::size_t jobs) {
  par::map_shards(shards, jobs, [&](std::size_t shard) {
    sim::Rng bad = nl_src;
    return bad.uniform();  // expect: rng-fork-in-shard
  });
}

void captured_draw_in_grid(sim::Rng& rng, const std::vector<int>& ttls,
                           std::size_t jobs) {
  par::map_grid(
      jobs,
      [&](int ttl) {
        return ttl * rng.uniform();  // expect: rng-fork-in-shard
      },
      ttls);
}

// True negatives: fork at the shard boundary, or a stream threaded through
// the callback signature — the two sanctioned shapes.
void forked(const sim::Rng& rng, std::size_t shards, std::size_t jobs) {
  par::map_shards(shards, jobs, [&](std::size_t shard) {
    sim::Rng actor = rng.fork(shard);
    return actor.uniform();
  });
}

void threaded(std::size_t shards, std::size_t jobs) {
  par::map_shards(shards, jobs, [](sim::Rng& shard_rng) {
    return shard_rng.uniform();
  });
}

void outside_shard(sim::Rng& rng) {
  double v = rng.uniform();  // not a shard body: no fork required
  (void)v;
}

}  // namespace dnsttl::core
