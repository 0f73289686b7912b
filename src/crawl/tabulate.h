#ifndef DNSTTL_CRAWL_TABULATE_H
#define DNSTTL_CRAWL_TABULATE_H

#include <array>
#include <string>
#include <unordered_set>
#include <vector>

#include "crawl/crawler.h"

namespace dnsttl::crawl {

/// One slice's tallies before unique-value counting: the report plus the
/// raw per-type value sets (sets must survive the fold so cross-shard
/// duplicates collapse exactly as in a serial crawl).  The bulk resolution
/// engine and its nested test oracle both fold partials in shard order
/// through finalize_crawl(), which is what makes their reports comparable
/// field-for-field.
struct PartialCrawl {
  CrawlReport report;
  std::array<std::unordered_set<std::string>, TypeTallyTable::kSlots.size()>
      uniques;
};

/// Tabulates one domain's @p harvested records into @p partial:
/// responsiveness, NS answer behavior, bailiwick class, per-type
/// record/TTL/unique tallies.  Both crawl drivers feed their
/// (wire-collapsed) harvest through here, so their reports agree record for
/// record; bailiwick classification still reads the domain itself, which
/// collapse cannot change.
void tabulate_domain(const GeneratedDomain& domain,
                     const std::vector<HarvestedRecord>& harvested,
                     PartialCrawl& partial);

/// Folds shard partials strictly in shard order into the final report;
/// unique-value sets union here so cross-shard duplicates collapse exactly
/// as in a serial crawl.
CrawlReport finalize_crawl(const std::string& list, std::size_t domains,
                           std::vector<PartialCrawl> partials);

}  // namespace dnsttl::crawl

#endif  // DNSTTL_CRAWL_TABULATE_H
