#ifndef DNSTTL_CRAWL_TABULATE_H
#define DNSTTL_CRAWL_TABULATE_H

#include <array>
#include <span>
#include <string>
#include <vector>

#include "crawl/crawler.h"
#include "crawl/tally.h"

namespace dnsttl::crawl {

/// One slice's tallies before the fold: the report's counts and per-type
/// TTL CDFs plus, per record type, the distinct values (values must
/// survive the fold so cross-shard duplicates collapse exactly as in a
/// serial crawl).  The bulk resolution engine and its nested test oracle
/// both fold partials in shard order through finalize_crawl(), which is
/// what makes their reports comparable field-for-field.
struct PartialCrawl {
  CrawlReport report;
  std::array<DistinctStrings, TypeTallyTable::kSlots.size()> uniques;
};

/// Tabulates one domain's @p harvested records (pointers into the domain's
/// own records) into @p partial: responsiveness, NS answer behavior,
/// bailiwick class, per-type record/TTL/unique tallies.  Both crawl drivers
/// feed their (wire-collapsed) harvest through here, so their reports agree
/// record for record; bailiwick classification still reads the domain
/// itself, which collapse cannot change.
void tabulate_domain(const GeneratedDomain& domain,
                     std::span<const HarvestedRecord* const> harvested,
                     PartialCrawl& partial);

/// Folds shard partials strictly in shard order into the final report:
/// counts add, TTL CDFs merge run by run, and distinct-value sets union so
/// cross-shard duplicates collapse exactly as in a serial crawl.
CrawlReport finalize_crawl(const std::string& list, std::size_t domains,
                           std::vector<PartialCrawl> partials);

}  // namespace dnsttl::crawl

#endif  // DNSTTL_CRAWL_TABULATE_H
