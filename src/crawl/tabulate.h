#ifndef DNSTTL_CRAWL_TABULATE_H
#define DNSTTL_CRAWL_TABULATE_H

#include <array>
#include <span>
#include <string>

#include "crawl/crawler.h"
#include "crawl/tally.h"

namespace dnsttl::crawl {

/// One slice's tallies before the fold: the report's counts and per-type
/// TTL CDFs plus, per record type, the distinct values (values must
/// survive the fold so cross-shard duplicates collapse exactly as in a
/// serial crawl).  The bulk resolution engine folds its shards' partials
/// into one and its nested test oracle tabulates into one; both report it
/// through finalize_crawl(), so their reports compare field-for-field.
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

/// Folds @p from into @p into: counts add, TTL CDFs merge run by run, and
/// distinct-value sets union so cross-shard duplicates collapse exactly as
/// in a serial crawl.  @p from's sets are freed as they fold, so only the
/// union outlives the shard.
void fold_partial(PartialCrawl& into, PartialCrawl& from);

/// The report of one list whose slices are all folded into @p partial:
/// each type's unique count is its set's size.
CrawlReport finalize_crawl(const std::string& list, std::size_t domains,
                           PartialCrawl partial);

}  // namespace dnsttl::crawl

#endif  // DNSTTL_CRAWL_TABULATE_H
