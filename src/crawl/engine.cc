#include "crawl/engine.h"

#include <algorithm>
#include <span>

#include "check/audit.h"
#include "core/world.h"
#include "crawl/materialize.h"
#include "dns/message.h"
#include "dns/zone.h"
#include "par/pool.h"
#include "resolver/recursive_resolver.h"
#include "stats/cdf.h"

namespace dnsttl::crawl {

namespace {

constexpr std::size_t kContentClasses = 4;

std::uint32_t slot_bit(dns::RRType type) {
  return std::uint32_t{1} << TypeTallyTable::slot_of(type);
}

/// True when two generated values materialize to the same wire rdata and
/// would therefore merge into one RRset member on a live server.  Address
/// types materialize through a hash, so distinct values can (rarely)
/// collide; name- and key-valued types materialize injectively.
bool same_wire_rdata(dns::RRType type, const std::string& a,
                     const std::string& b) {
  if (a == b) return true;
  switch (type) {
    case dns::RRType::kA:
      return ipv4_for(a) == ipv4_for(b);
    case dns::RRType::kAAAA:
      return ipv6_for(a) == ipv6_for(b);
    default:
      return false;
  }
}

/// Appends pointers to @p domain's records of @p type to @p out with
/// duplicates (by wire rdata) collapsed, keeping the first occurrence —
/// exactly the RRset a live harvest of that type returns.  Both bulk-crawl
/// drivers tabulate through this rule, which is what makes their reports
/// identical.
void collapse_type(const GeneratedDomain& domain, dns::RRType type,
                   std::vector<const HarvestedRecord*>& out) {
  const std::size_t start = out.size();
  for (const auto& record : domain.records) {
    if (record.type != type) continue;
    bool dup = false;
    for (std::size_t i = start; i < out.size() && !dup; ++i) {
      dup = same_wire_rdata(type, out[i]->value, record.value);
    }
    if (!dup) out.push_back(&record);
  }
}

/// Per-shard DMap accumulator: flat class counters plus one TTL CDF per
/// (class, type) cell, folded in shard order like the crawl partials.
struct DmapPartial {
  std::array<std::size_t, kContentClasses> class_counts{};
  std::array<stats::Cdf, kContentClasses * TypeTallyTable::kSlots.size()> ttls;

  static std::size_t cell(ContentClass content, std::size_t slot) {
    return static_cast<std::size_t>(content) * TypeTallyTable::kSlots.size() +
           slot;
  }
};

void dmap_tabulate(const GeneratedDomain& domain,
                   std::span<const HarvestedRecord* const> harvested,
                   DmapPartial& dmap) {
  if (!domain.responsive) return;
  ++dmap.class_counts[static_cast<std::size_t>(domain.content)];
  if (domain.content == ContentClass::kUnclassified) return;
  for (const HarvestedRecord* record : harvested) {
    dmap.ttls[DmapPartial::cell(domain.content,
                                TypeTallyTable::slot_of(record->type))]
        .add(static_cast<double>(record->ttl.value()));
  }
}

void fold_partial(DmapPartial& into, const DmapPartial& from) {
  for (std::size_t c = 0; c < kContentClasses; ++c) {
    into.class_counts[c] += from.class_counts[c];
  }
  for (std::size_t cell = 0; cell < into.ttls.size(); ++cell) {
    into.ttls[cell].merge(from.ttls[cell]);
  }
}

DmapReport finalize_dmap(const DmapPartial& merged) {
  DmapReport report;
  for (std::size_t c = 0; c < kContentClasses; ++c) {
    const auto content = static_cast<ContentClass>(c);
    if (merged.class_counts[c] != 0) {
      report.class_counts[content] = merged.class_counts[c];
    }
    for (std::size_t slot = 0; slot < TypeTallyTable::kSlots.size(); ++slot) {
      const auto& cdf = merged.ttls[DmapPartial::cell(content, slot)];
      if constexpr (check::kAuditEnabled) {
        cdf.validate();
      }
      if (!cdf.empty()) {
        report.median_ttl_hours[{content, TypeTallyTable::kSlots[slot]}] =
            cdf.median() / 3600.0;
      }
    }
  }
  return report;
}

/// Everything one shard produced, or every shard folded so far.
struct ShardOut {
  PartialCrawl partial;
  DmapPartial dmap;
  std::size_t queries = 0;
};

/// One shard of the bulk resolution engine: crawls the contiguous domain
/// range [begin, end) one domain at a time.  Domain i is regenerated from
/// its own forked stream into one recycled buffer, its harvest is
/// collapsed into a reused vector of pointers to its own records, and it is
/// tabulated before the next domain is generated, so the shard needs
/// nothing from its neighbours and the fold stays a pure function of
/// (params, list_rng, range).
ShardOut run_shard(const ListParams& params, const std::string& suffix,
                   const sim::Rng& list_rng, std::size_t begin,
                   std::size_t end, bool collect_content) {
  ShardOut out;
  GeneratedDomain domain;
  std::vector<const HarvestedRecord*> harvest;
  for (std::size_t i = begin; i < end; ++i) {
    sim::Rng domain_rng = list_rng.fork(i);
    generate_domain(params, suffix, i, domain_rng, domain);
    harvest.clear();
    ++out.queries;  // the NS probe every crawl starts with
    if (domain.responsive) {
      // The probe's answer is the NS harvest; then one query per further
      // record type, in order of first appearance.
      std::uint32_t asked = slot_bit(dns::RRType::kNS);
      collapse_type(domain, dns::RRType::kNS, harvest);
      for (const auto& record : domain.records) {
        const std::uint32_t bit = slot_bit(record.type);
        if ((asked & bit) != 0) continue;
        asked |= bit;
        ++out.queries;
        collapse_type(domain, record.type, harvest);
      }
    }
    tabulate_domain(domain, harvest, out.partial);
    if (collect_content) {
      dmap_tabulate(domain, harvest, out.dmap);
    }
  }
  return out;
}

}  // namespace

EngineResult crawl_engine(const ListParams& params, const sim::Rng& list_rng,
                          const EngineOptions& options) {
  const std::size_t domains = params.domains;
  std::size_t shard_count = options.shard_count != 0
                                ? options.shard_count
                                : par::shard_count_for(domains);
  if (shard_count == 0) shard_count = 1;
  if (shard_count > domains) shard_count = domains == 0 ? 1 : domains;

  const std::string suffix = list_suffix(params);
  const std::size_t chunk = (domains + shard_count - 1) / shard_count;
  ShardOut total;
  par::fold_shards(
      shard_count, options.jobs,
      [&](std::size_t shard) {
        const std::size_t begin = std::min(shard * chunk, domains);
        const std::size_t end = std::min(begin + chunk, domains);
        return run_shard(params, suffix, list_rng, begin, end,
                         options.collect_content);
      },
      [&total](std::size_t, ShardOut&& out) {
        fold_partial(total.partial, out.partial);
        fold_partial(total.dmap, out.dmap);
        total.queries += out.queries;
      });

  EngineResult result;
  result.report =
      finalize_crawl(params.name, domains, std::move(total.partial));
  result.stats.resolutions = domains;
  result.stats.queries = total.queries;
  result.stats.steps = result.stats.queries + result.report.responsive;
  result.stats.in_flight_high_water = std::min<std::size_t>(domains, 1);
  result.stats.shards = shard_count;
  if (options.collect_content) {
    result.dmap = finalize_dmap(total.dmap);
  }
  return result;
}

NestedResult crawl_nested(const ListParams& params, const sim::Rng& list_rng,
                          bool collect_content) {
  const auto population = generate_population(params, list_rng);

  NestedResult out;
  PartialCrawl partial;
  DmapPartial dmap;
  std::vector<const HarvestedRecord*> harvest;

  // The pre-engine nested-call discipline: every record type of every
  // domain is fetched by a full recursive resolution — root referral, TLD
  // referral, child answer, each leg a real Message through the
  // simulator's network with its wire-codec round trip.  The resolver is
  // flushed between fetches, because that is what "spawn the resolution
  // machinery per query" means: no state is shared across resolutions.
  // The bulk engine runs none of this machinery; it tabulates the same
  // collapsed records, and this oracle shows the two agree.
  core::World world(core::World::Options{1, /*loss_rate=*/0.0, {}});
  const auto location = net::Location{net::Region::kEU, 1.0};
  const std::string suffix = list_suffix(params);
  auto tld_zone = world.add_tld(suffix, "ns", dns::kTtl2Days, dns::Ttl{3600},
                                dns::Ttl{3600}, location);
  auto& child_host = world.add_server("bulk-crawl-child", location);
  const auto child_address = world.address_of("bulk-crawl-child");

  resolver::RecursiveResolver resolver("bulk-crawl-nested",
                                       resolver::ResolverConfig{},
                                       world.network(), world.hints());
  const auto resolver_address = world.network().attach(resolver, location);
  resolver.set_node_ref(net::NodeRef{resolver_address, location});

  for (const auto& domain : population) {
    harvest.clear();
    if (domain.responsive && !domain.records.empty()) {
      auto origin = dns::Name::from_string(domain.name);
      auto zone = std::make_shared<dns::Zone>(origin);
      zone->add(dns::make_soa(origin, dns::Ttl{3600}, origin.prepend("ns1"),
                              1));
      for (const auto& record : domain.records) {
        zone->add(dns::ResourceRecord{harvest_owner(origin, record.type),
                                      dns::RClass::kIN, record.ttl,
                                      materialize(record)});
      }
      const auto ns_name = origin.prepend("ns0");
      world.delegate(*tld_zone, origin, {{ns_name, child_address}},
                     params.registry_ns_ttl, dns::Ttl{3600});
      child_host.add_zone(zone);

      std::uint32_t asked = 0;
      for (const auto& record : domain.records) {
        const std::uint32_t bit = slot_bit(record.type);
        if ((asked & bit) != 0) continue;
        asked |= bit;

        const auto owner = harvest_owner(origin, record.type);
        resolver.flush();  // cold machinery for every fetch
        auto outcome = resolver.resolve(
            dns::Question{owner, record.type, dns::RClass::kIN},
            sim::Time{});

        // Tabulate the collapsed harvest, verified against the resolved
        // answer: it must carry exactly one RRset member per collapsed
        // record, at the record's TTL, with the rdata that record
        // materializes to.
        const std::size_t before = harvest.size();
        collapse_type(domain, record.type, harvest);
        std::size_t wire = 0;
        bool bad = outcome.response.flags.rcode != dns::Rcode::kNoError;
        for (const auto& rr : outcome.response.answers) {
          if (rr.type() != record.type) continue;
          ++wire;
          if (rr.ttl != record.ttl) bad = true;
          bool matched = false;
          for (std::size_t i = before; i < harvest.size() && !matched; ++i) {
            matched = rr.rdata == materialize(*harvest[i]);
          }
          if (!matched) bad = true;
        }
        if (wire != harvest.size() - before) bad = true;
        if (bad) ++out.harvest_mismatches;
      }
      child_host.remove_zone(zone);
      tld_zone->remove(origin, dns::RRType::kNS);
      tld_zone->remove(ns_name, dns::RRType::kA);
    }
    tabulate_domain(domain, harvest, partial);
    if (collect_content) {
      dmap_tabulate(domain, harvest, dmap);
    }
  }

  out.report =
      finalize_crawl(params.name, population.size(), std::move(partial));
  if (collect_content) {
    out.dmap = finalize_dmap(dmap);
  }
  return out;
}

}  // namespace dnsttl::crawl
