// analyze-as: src/crawl/fold_shards_rng_ok.cc
// True negative: the map lambda draws from its shard's own fork, and the
// fold lambda adds each result into the caller's accumulator, which
// fold_shards runs one shard at a time in shard order.

namespace dnsttl::crawl {

double forked_draw_in_fold_map(const sim::Rng& rng, std::size_t shards,
                               std::size_t jobs) {
  double total = 0;
  par::fold_shards(
      shards, jobs,
      [&](std::size_t shard) {
        sim::Rng mine = rng.fork(shard);
        return mine.uniform();
      },
      [&total](std::size_t, double&& draw) { total += draw; });
  return total;
}

}  // namespace dnsttl::crawl
