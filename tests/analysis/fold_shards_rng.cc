// analyze-as: src/crawl/fold_shards_rng.cc
// True positive: par::fold_shards' map lambda is a shard body like any
// other, so a draw there from a captured stream makes the folded total
// depend on which worker ran which shard, even though the folds themselves
// run in shard order.

namespace dnsttl::crawl {

double captured_draw_in_fold_map(sim::Rng& rng, std::size_t shards,
                                 std::size_t jobs) {
  double total = 0;
  par::fold_shards(
      shards, jobs,
      [&](std::size_t shard) {
        return rng.uniform();  // expect: rng-fork-in-shard
      },
      [&total](std::size_t, double&& draw) { total += draw; });
  return total;
}

}  // namespace dnsttl::crawl
