#include "crawl/engine.h"

#include <algorithm>
#include <functional>

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
      return (std::hash<std::string>{}(a) & 0x00ffffffu) ==
             (std::hash<std::string>{}(b) & 0x00ffffffu);
    case dns::RRType::kAAAA:
      return std::hash<std::string>{}(a) == std::hash<std::string>{}(b);
    default:
      return false;
  }
}

/// Appends @p domain's records of @p type to @p out with duplicates (by
/// wire rdata) collapsed, keeping the first occurrence — exactly the RRset
/// a live harvest of that type returns.  Both bulk-crawl drivers tabulate
/// through this rule, which is what makes their reports identical.
void collapse_type(const GeneratedDomain& domain, dns::RRType type,
                   std::vector<HarvestedRecord>& out) {
  const std::size_t start = out.size();
  for (const auto& record : domain.records) {
    if (record.type != type) continue;
    bool dup = false;
    for (std::size_t i = start; i < out.size() && !dup; ++i) {
      dup = same_wire_rdata(type, out[i].value, record.value);
    }
    if (!dup) out.push_back(record);
  }
}

/// Per-shard DMap accumulator: flat class counters plus one TTL sample set
/// per (class, type) cell, folded in shard order like the crawl partials.
struct DmapPartial {
  std::array<std::size_t, kContentClasses> class_counts{};
  std::array<stats::Cdf, kContentClasses * TypeTallyTable::kSlots.size()>
      ttls;

  static std::size_t cell(ContentClass content, std::size_t slot) {
    return static_cast<std::size_t>(content) * TypeTallyTable::kSlots.size() +
           slot;
  }
};

void dmap_tabulate(const GeneratedDomain& domain,
                   const std::vector<HarvestedRecord>& harvested,
                   DmapPartial& dmap) {
  if (!domain.responsive) return;
  ++dmap.class_counts[static_cast<std::size_t>(domain.content)];
  if (domain.content == ContentClass::kUnclassified) return;
  for (const auto& record : harvested) {
    dmap.ttls[DmapPartial::cell(domain.content,
                                TypeTallyTable::slot_of(record.type))]
        .add(static_cast<double>(record.ttl.value()));
  }
}

DmapReport finalize_dmap(std::vector<DmapPartial> partials) {
  DmapPartial merged;
  for (auto& partial : partials) {
    for (std::size_t c = 0; c < kContentClasses; ++c) {
      merged.class_counts[c] += partial.class_counts[c];
    }
    for (std::size_t cell = 0; cell < merged.ttls.size(); ++cell) {
      if (!partial.ttls[cell].empty()) {
        merged.ttls[cell].add_all(partial.ttls[cell].sorted_samples());
      }
    }
  }

  DmapReport report;
  for (std::size_t c = 0; c < kContentClasses; ++c) {
    if (merged.class_counts[c] != 0) {
      report.class_counts[static_cast<ContentClass>(c)] =
          merged.class_counts[c];
    }
  }
  for (std::size_t c = 0; c < kContentClasses; ++c) {
    for (std::size_t slot = 0; slot < TypeTallyTable::kSlots.size(); ++slot) {
      const auto& cdf = merged.ttls[DmapPartial::cell(
          static_cast<ContentClass>(c), slot)];
      if (!cdf.empty()) {
        report.median_ttl_hours[{static_cast<ContentClass>(c),
                                 TypeTallyTable::kSlots[slot]}] =
            cdf.median() / 3600.0;
      }
    }
  }
  return report;
}

/// Resolution lifecycle of one task slot.  A task is created when its
/// domain is admitted, performs the crawler's NS probe, then fetches the
/// remaining record types one query per step, and retires by folding its
/// collapsed harvest into the shard's partial tallies.
enum Phase : std::uint8_t {
  kFree = 0,     ///< slot available for admission
  kNsProbe,      ///< pending query: the NS probe every crawl starts with
  kHarvest,      ///< pending query: next unharvested record type
};

/// Everything one shard's scheduler produced.
struct ShardOut {
  PartialCrawl partial;
  DmapPartial dmap;
  std::size_t resolutions = 0;
  std::size_t queries = 0;
  std::size_t steps = 0;
  std::size_t high_water = 0;
};

/// One shard of the bulk resolution engine: an SoA pool of resumable
/// resolution tasks over the contiguous domain range [begin, end), advanced
/// in waves.  Every admitted domain is regenerated from its own forked
/// stream, so the shard needs nothing from its neighbours and the fold
/// stays a pure function of (params, list_rng, range).
ShardOut run_shard(const ListParams& params, const std::string& suffix,
                   const sim::Rng& list_rng, std::size_t begin,
                   std::size_t end, const EngineOptions& options) {
  ShardOut out;
  const std::size_t range = end - begin;
  const std::size_t capacity =
      std::min(std::max<std::size_t>(1, options.max_in_flight), range);
  if (range == 0) return out;

  // Task pool, struct-of-arrays: the scheduler scans the small hot arrays
  // (phase/cursor/pending) every wave and touches a task's domain buffers
  // only on the step that advances it.
  std::vector<std::uint8_t> phase(capacity, kFree);
  std::vector<std::uint32_t> cursor(capacity, 0);     ///< next record index
  std::vector<std::uint32_t> harvested(capacity, 0);  ///< slot bitmask done
  std::vector<GeneratedDomain> domain(capacity);
  std::vector<std::vector<HarvestedRecord>> harvest(capacity);

  std::size_t live = 0;
  std::size_t next = begin;

  auto retire = [&](std::size_t slot) {
    tabulate_domain(domain[slot], harvest[slot], out.partial);
    if (options.collect_content) {
      dmap_tabulate(domain[slot], harvest[slot], out.dmap);
    }
    phase[slot] = kFree;
    --live;
    ++out.resolutions;
  };

  while (live > 0 || next < end) {
    // Admission: refill every free slot from the shard's domain range.
    // The generated buffers (name, record strings) are recycled across the
    // domains a slot hosts, so steady-state allocation is near zero.
    if (next < end && live < capacity) {
      for (std::size_t slot = 0; slot < capacity && next < end; ++slot) {
        if (phase[slot] != kFree) continue;
        sim::Rng domain_rng = list_rng.fork(next);
        generate_domain(params, suffix, next, domain_rng, domain[slot]);
        harvest[slot].clear();
        cursor[slot] = 0;
        harvested[slot] = 0;
        phase[slot] = kNsProbe;
        ++live;
        ++next;
      }
    }
    out.high_water = std::max(out.high_water, live);

    // One wave: every live task advances exactly one step (at most one
    // query), so thousands of resolutions interleave like they would over
    // a real upstream, and completion order is deterministic.
    for (std::size_t slot = 0; slot < capacity; ++slot) {
      if (phase[slot] == kFree) continue;
      ++out.steps;
      GeneratedDomain& d = domain[slot];

      if (phase[slot] == kNsProbe) {
        ++out.queries;
        if (!d.responsive) {
          retire(slot);
          continue;
        }
        // The NS answer arrives with this probe: harvest the NS RRset (if
        // the domain answered with one) before moving to per-type fetches.
        const std::uint32_t ns_bit = slot_bit(dns::RRType::kNS);
        collapse_type(d, dns::RRType::kNS, harvest[slot]);
        harvested[slot] |= ns_bit;
        phase[slot] = kHarvest;
        continue;
      }

      // kHarvest: fetch the next record type this domain still owes us.
      auto& c = cursor[slot];
      while (c < d.records.size() &&
             (harvested[slot] & slot_bit(d.records[c].type)) != 0) {
        ++c;
      }
      if (c >= d.records.size()) {
        retire(slot);
        continue;
      }
      const dns::RRType type = d.records[c].type;
      ++out.queries;
      collapse_type(d, type, harvest[slot]);
      harvested[slot] |= slot_bit(type);
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
  auto outs = par::map_shards(shard_count, options.jobs,
                              [&](std::size_t shard) {
                                const std::size_t begin =
                                    std::min(shard * chunk, domains);
                                const std::size_t end =
                                    std::min(begin + chunk, domains);
                                return run_shard(params, suffix, list_rng,
                                                 begin, end, options);
                              });

  EngineResult result;
  std::vector<PartialCrawl> partials;
  std::vector<DmapPartial> dmap_partials;
  partials.reserve(outs.size());
  for (auto& out : outs) {
    result.stats.resolutions += out.resolutions;
    result.stats.queries += out.queries;
    result.stats.steps += out.steps;
    result.stats.in_flight_high_water =
        std::max(result.stats.in_flight_high_water, out.high_water);
    partials.push_back(std::move(out.partial));
    if (options.collect_content) {
      dmap_partials.push_back(std::move(out.dmap));
    }
  }
  result.stats.shards = shard_count;
  result.report = finalize_crawl(params.name, domains, std::move(partials));
  if (options.collect_content) {
    result.dmap = finalize_dmap(std::move(dmap_partials));
  }
  return result;
}

NestedResult crawl_nested(const ListParams& params, const sim::Rng& list_rng,
                          bool collect_content) {
  const auto population = generate_population(params, list_rng);

  NestedResult out;
  PartialCrawl partial;
  DmapPartial dmap;
  std::vector<HarvestedRecord> harvest;

  // The pre-engine nested-call discipline: every record type of every
  // domain is fetched by a full recursive resolution — root referral, TLD
  // referral, child answer, each leg a real Message through the
  // simulator's network with its wire-codec round trip.  The resolver is
  // flushed between fetches, because that is what "spawn the resolution
  // machinery per query" means: no state is shared across resolutions,
  // which is exactly what the bulk engine's multiplexed scheduler amortizes
  // away.
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
            matched = rr.rdata == materialize(harvest[i]);
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

  std::vector<PartialCrawl> partials;
  partials.push_back(std::move(partial));
  out.report =
      finalize_crawl(params.name, population.size(), std::move(partials));
  if (collect_content) {
    std::vector<DmapPartial> dmap_partials;
    dmap_partials.push_back(std::move(dmap));
    out.dmap = finalize_dmap(std::move(dmap_partials));
  }
  return out;
}

}  // namespace dnsttl::crawl
