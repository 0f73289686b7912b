#include "crawl/crawler.h"

#include <cstdint>
#include <optional>
#include <utility>

#include "check/audit.h"
#include "crawl/tabulate.h"

namespace dnsttl::crawl {

void tabulate_domain(const GeneratedDomain& domain,
                     std::span<const HarvestedRecord* const> harvested,
                     PartialCrawl& partial) {
  auto& report = partial.report;
  if (!domain.responsive) return;
  ++report.responsive;
  ++report.bailiwick.responsive;

  switch (domain.ns_answer) {
    case NsAnswerKind::kCname:
      ++report.bailiwick.cname;
      break;
    case NsAnswerKind::kSoa:
      ++report.bailiwick.soa;
      break;
    case NsAnswerKind::kNsRecords: {
      bool has_ns = false;
      for (const HarvestedRecord* record : harvested) {
        if (record->type == dns::RRType::kNS) {
          has_ns = true;
          break;
        }
      }
      if (has_ns) {
        ++report.bailiwick.respond_ns;
        switch (classify_bailiwick(domain)) {
          case 0:
            ++report.bailiwick.out_only;
            break;
          case 1:
            ++report.bailiwick.in_only;
            break;
          default:
            ++report.bailiwick.mixed;
        }
      }
      break;
    }
  }

  // Per-domain TTL=0 dedup as a slot bitmask instead of a heap-allocated
  // std::set — this runs once per record of every domain crawled.
  std::uint32_t ttl_zero_seen = 0;
  for (const HarvestedRecord* record : harvested) {
    const std::size_t slot = TypeTallyTable::slot_of(record->type);
    auto& tally = report.by_type[record->type];
    ++tally.records;
    tally.ttl_cdf.add(static_cast<double>(record->ttl.value()));
    partial.uniques[slot].insert(record->value);
    const std::uint32_t bit = std::uint32_t{1} << slot;
    if (record->ttl == dns::Ttl{} && (ttl_zero_seen & bit) == 0) {
      ttl_zero_seen |= bit;
      ++tally.ttl_zero_domain_count;
    }
  }
}

void fold_partial(PartialCrawl& into, PartialCrawl& from) {
  into.report.responsive += from.report.responsive;
  auto& b = into.report.bailiwick;
  const auto& fb = from.report.bailiwick;
  b.responsive += fb.responsive;
  b.cname += fb.cname;
  b.soa += fb.soa;
  b.respond_ns += fb.respond_ns;
  b.out_only += fb.out_only;
  b.in_only += fb.in_only;
  b.mixed += fb.mixed;

  for (std::size_t slot = 0; slot < TypeTallyTable::kSlots.size(); ++slot) {
    if (!from.report.by_type.slot_used(slot)) continue;
    const auto& tally = from.report.by_type.slot(slot);
    into.report.by_type.mark_used(slot);
    auto& merged = into.report.by_type.slot(slot);
    merged.records += tally.records;
    merged.ttl_zero_domain_count += tally.ttl_zero_domain_count;
    merged.ttl_cdf.merge(tally.ttl_cdf);
    into.uniques[slot].merge(from.uniques[slot]);
    from.uniques[slot] = DistinctStrings{};  // folded: free it now
  }
}

CrawlReport finalize_crawl(const std::string& list, std::size_t domains,
                           PartialCrawl partial) {
  CrawlReport report = std::move(partial.report);
  report.list = list;
  report.domains = domains;
  for (std::size_t slot = 0; slot < TypeTallyTable::kSlots.size(); ++slot) {
    if (!report.by_type.slot_used(slot)) continue;
    report.by_type.slot(slot).unique_values = partial.uniques[slot].size();
    if constexpr (check::kAuditEnabled) {
      partial.uniques[slot].validate();
      report.by_type.slot(slot).ttl_cdf.validate();
    }
  }
  return report;
}

int classify_bailiwick(const GeneratedDomain& domain) {
  const std::string& name = domain.name;
  bool any_in = false;
  bool any_out = false;
  for (const auto& record : domain.records) {
    if (record.type != dns::RRType::kNS) continue;
    // In bailiwick: the NS target name lies under the domain itself, i.e.
    // ends with "." + name.
    const std::string& target = record.value;
    if (target.size() > name.size() && target.ends_with(name) &&
        target[target.size() - name.size() - 1] == '.') {
      any_in = true;
    } else {
      any_out = true;
    }
  }
  if (any_in && any_out) return 2;
  return any_in ? 1 : 0;
}

void tabulate_parent_child(const GeneratedDomain& domain,
                           ParentChildReport& report) {
  if (!domain.responsive || domain.ns_answer != NsAnswerKind::kNsRecords) {
    return;
  }
  std::optional<dns::Ttl> child_ttl;
  for (const auto& record : domain.records) {
    if (record.type == dns::RRType::kNS) {
      child_ttl = record.ttl;
      break;
    }
  }
  if (!child_ttl || domain.parent_ns_ttl == dns::Ttl{}) {
    return;
  }
  ++report.compared;
  if (*child_ttl < domain.parent_ns_ttl) {
    ++report.child_shorter;
  } else if (*child_ttl == domain.parent_ns_ttl) {
    ++report.equal;
  } else {
    ++report.child_longer;
  }
  report.child_over_parent_ratio.add(
      static_cast<double>(child_ttl->value()) /
      static_cast<double>(domain.parent_ns_ttl.value()));
}

ParentChildReport compare_parent_child(const ListParams& params,
                                       const sim::Rng& list_rng) {
  ParentChildReport report;
  const std::string suffix = list_suffix(params);
  GeneratedDomain domain;
  for (std::size_t i = 0; i < params.domains; ++i) {
    sim::Rng domain_rng = list_rng.fork(i);
    generate_domain(params, suffix, i, domain_rng, domain);
    tabulate_parent_child(domain, report);
  }
  return report;
}

}  // namespace dnsttl::crawl
