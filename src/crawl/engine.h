#ifndef DNSTTL_CRAWL_ENGINE_H
#define DNSTTL_CRAWL_ENGINE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crawl/crawler.h"
#include "crawl/dmap.h"
#include "crawl/population_generator.h"
#include "crawl/tabulate.h"
#include "sim/rng.h"

namespace dnsttl::crawl {

/// Counters the bulk resolution engine reports alongside the crawl itself.
struct EngineStats {
  std::size_t resolutions = 0;  ///< domains fully resolved (incl. dead ones)
  std::size_t queries = 0;      ///< NS probes plus per-type harvest queries
  /// Protocol steps: one per query, plus one retiring each responsive
  /// domain once its last record type is harvested.
  std::size_t steps = 0;
  /// Most domains any one shard held at once: 1, since every shard
  /// tabulates a domain before it generates the next (0 for an empty list).
  std::size_t in_flight_high_water = 0;
  std::size_t shards = 0;
};

struct EngineOptions {
  std::size_t shard_count = 0;  ///< 0: par::shard_count_for(domain count)
  std::size_t jobs = 1;
  bool collect_content = false;  ///< also run the DMap streaming hook
};

struct EngineResult {
  CrawlReport report;
  DmapReport dmap;  ///< populated only when options.collect_content
  EngineStats stats;
};

/// Bulk resolution engine: crawls the list described by @p params without
/// ever materializing its population.  Each shard owns a contiguous domain
/// range and walks it one domain at a time: generate into a recycled
/// buffer, harvest the NS answer and then one record type per query,
/// collapse, tabulate.  Domain @p i is drawn from `list_rng.fork(i)`, so
/// any shard regenerates exactly its own slice; each shard's partial
/// tallies fold into one accumulator in shard order as the shard lands
/// (par::fold_shards, fold_partial()), and finalize_crawl() reports the
/// result.  Output is therefore a pure function of (params, list_rng,
/// shard_count) — identical at any --jobs.
EngineResult crawl_engine(const ListParams& params, const sim::Rng& list_rng,
                          const EngineOptions& options = {});

/// What the nested test oracle measured while harvesting.
struct NestedResult {
  CrawlReport report;
  DmapReport dmap;  ///< populated only when @p collect_content
  /// Wire answers that disagreed with the collapsed tabulation input (in
  /// rcode, member count, TTL, or rdata) — must be zero; non-zero means the
  /// drivers' collapse semantics diverged from the authoritative RRset
  /// semantics.
  std::size_t harvest_mismatches = 0;
};

/// Nested test oracle for the engine: materializes the same forked
/// population (generate_population over @p list_rng), then crawls it the
/// pre-engine way — each domain is stood up as a zone on a live
/// authoritative server and every record type is fetched by a full
/// recursive resolution through the simulator's network, wire codec
/// round-trip included.  Every answered RR is checked against the collapsed
/// harvest (count, TTL, and rdata equal to materialize() of a collapsed
/// record), and the harvest is tabulated through the same collapse rule as
/// the engine, so reports are field-identical on the same
/// (params, list_rng).  Only tests call it.
NestedResult crawl_nested(const ListParams& params, const sim::Rng& list_rng,
                          bool collect_content = false);

}  // namespace dnsttl::crawl

#endif  // DNSTTL_CRAWL_ENGINE_H
