#include "crawl/passive_workload.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "check/audit.h"
#include "resolver/population.h"
#include "sim/timer_wheel.h"

namespace dnsttl::crawl {
namespace {

/// Pareto scale and shape of per-resolver demand in lookups/day.
constexpr double kDemandXmPerDay = 1.0;
constexpr double kDemandAlpha = 1.2;

/// The two copies of the nameserver addresses the paper contrasts: the
/// root's 2-day glue and the dns.nl child's 1-hour records.
constexpr dns::Ttl kParentGlueTtl = dns::kTtl2Days;
constexpr dns::Ttl kChildATtl = dns::kTtl1Hour;

/// Structure-of-arrays demand pool: per-resolver arrival state in parallel
/// arrays, driven by a timer wheel instead of one queued event and closure
/// per pending arrival (docs/architecture.md §Workload engine);
/// Simulation::run_until drains the wheel together with its queue.
/// Each resolver holds exactly one pending "next query" entry; the payload
/// is its pool index.  Sequence numbers come from Simulation::allocate_seq
/// in the same order the object-per-actor code consumed them, so outputs
/// at historical scales are byte-identical.
class DemandPool {
 public:
  DemandPool(sim::Simulation& simulation, net::Network& network,
             sim::Rng gap_rng, sim::Time end)
      : simulation_(simulation),
        network_(network),
        wheel_(simulation.now()),
        gap_rng_(gap_rng),
        end_(end) {}

  void add(resolver::RecursiveResolver* resolver, double mean_gap_seconds) {
    resolvers_.push_back(resolver);
    mean_gap_seconds_.push_back(mean_gap_seconds);
    counters_.push_back(0);
  }

  [[nodiscard]] std::size_t size() const noexcept { return resolvers_.size(); }
  [[nodiscard]] std::size_t client_queries() const noexcept {
    return client_queries_;
  }
  sim::TimerWheel& wheel() noexcept { return wheel_; }

  /// Draws the first arrival for every resolver in index order — the same
  /// stream order the per-actor closures used.
  void seed_arrivals() {
    live_ = size();
    for (std::size_t i = 0; i < size(); ++i) {
      schedule_next(i, simulation_.now());
    }
  }

  /// Drops the resolver's expired cache entries, sends its next client
  /// query and draws its next arrival.  The reply is discarded: the study
  /// reads the authoritative logs.
  ///
  /// The purge changes no output.  entry.at is the simulation clock, and
  /// no later call on this resolver runs at an earlier time: the wheel
  /// fires in (time, seq) order, only the pool queries these resolvers,
  /// and a resolution never runs before its start.  An entry due by then
  /// (past its serve-stale window, for a positive one) can answer no later
  /// lookup or peek.  Without it every fresh name's NXDOMAIN would stay
  /// cached to the end of the run.
  void fire(const sim::TimerWheel::Entry& entry) {
    const auto index = static_cast<std::size_t>(entry.payload);
    DNSTTL_AUDIT_CHECK("crawl::DemandPool", index < size(),
                       "fired entry references an orphaned resolver index");
    const dns::Question question{
        dns::Name::from_string("u" + std::to_string(counters_[index]++) +
                               "-r" + std::to_string(index) + ".nl"),
        dns::RRType::kA, dns::RClass::kIN};
    resolvers_[index]->cache().purge_expired(entry.at);
    net::MessageLease reply(network_);
    resolvers_[index]->resolve(question, entry.at, *reply);
    ++client_queries_;
    schedule_next(index, entry.at);
  }

  /// Deep audit: SoA arrays in step, wheel/pool pending accounting in
  /// agreement, and the wheel's own structural invariants.
  void validate() const {
    constexpr const char* kWhat = "crawl::DemandPool";
    DNSTTL_AUDIT_CHECK(kWhat,
                       mean_gap_seconds_.size() == resolvers_.size() &&
                           counters_.size() == resolvers_.size(),
                       "SoA arrays out of step");
    DNSTTL_AUDIT_CHECK(kWhat, wheel_.pending() == live_,
                       "wheel pending entries disagree with live-resolver "
                       "accounting");
    DNSTTL_AUDIT_CHECK(kWhat, live_ <= resolvers_.size(),
                       "more live arrivals than resolvers in the pool");
    wheel_.validate();
    check::count_audit();
  }

 private:
  void schedule_next(std::size_t index, sim::Time from) {
    const double gap = gap_rng_.exponential(mean_gap_seconds_[index]);
    const sim::Time due = from + sim::approx_seconds(gap);
    if (due >= end_) {
      --live_;  // retires on first arrival past the horizon
      return;
    }
    wheel_.schedule(due, simulation_.allocate_seq(),
                    static_cast<std::uint64_t>(index));
  }

  sim::Simulation& simulation_;
  net::Network& network_;
  sim::TimerWheel wheel_;
  sim::Rng gap_rng_;
  sim::Time end_;

  std::vector<resolver::RecursiveResolver*> resolvers_;
  std::vector<double> mean_gap_seconds_;
  std::vector<std::uint64_t> counters_;

  std::size_t client_queries_ = 0;
  /// Resolvers whose next arrival is still inside the horizon; equals the
  /// wheel's pending count at every mutation boundary.
  std::size_t live_ = 0;
};

}  // namespace

PassiveReport run_passive_nl(core::World& world, const PassiveConfig& config) {
  const auto nl = dns::Name::from_string("nl");
  const auto dnsnl = dns::Name::from_string("dns.nl");

  // The .nl zone and the dns.nl zone that carries the nameserver addresses,
  // both served by all four servers (as SIDN does).
  auto nl_zone = world.create_zone("nl", dns::Ttl{3600});
  auto dnsnl_zone = world.create_zone("dns.nl", dns::Ttl{3600});

  std::vector<std::pair<dns::Name, net::Address>> servers;
  std::vector<std::string> observed;  // we watch 2 of the 4
  for (int i = 1; i <= 4; ++i) {
    auto ns_name = dnsnl.prepend("ns" + std::to_string(i));
    auto& server = world.add_server(ns_name.to_string(),
                                    net::Location{net::Region::kEU, 1.0});
    server.add_zone(nl_zone);
    server.add_zone(dnsnl_zone);
    if (i == 1 || i == 3) {
      server.set_logging(true);
      observed.push_back(ns_name.to_string());
    }
    auto address = world.address_of(ns_name.to_string());
    servers.emplace_back(ns_name, address);

    nl_zone->add(dns::make_ns(nl, dns::Ttl{3600}, ns_name));
    dnsnl_zone->add(dns::make_ns(dnsnl, dns::Ttl{3600}, ns_name));
    // Child copy of the address: the 1-hour TTL the paper contrasts with
    // the root's 2-day glue.
    dnsnl_zone->add(dns::make_a(ns_name, kChildATtl, address));
  }
  // dns.nl is a delegation inside .nl served by the same hosts.
  for (const auto& [ns_name, address] : servers) {
    nl_zone->add(dns::make_ns(dnsnl, dns::Ttl{3600}, ns_name));
  }
  // Root-side delegation with the 2-day glue.
  world.delegate(*world.root_zone(), nl, servers, kParentGlueTtl,
                 kParentGlueTtl);

  PassiveReport report;
  {
    // The resolver population generating demand.  It and its pool live in
    // this block alone, so their caches are freed before the analysis
    // below allocates.
    sim::Rng rng = world.rng().fork(0x9a551e);
    auto population = resolver::ResolverPopulation::build(
        world.network(), world.hints(), world.root_zone(),
        resolver::paper_profiles(), config.resolver_count,
        resolver::atlas_region_weights(), rng);

    // Poisson demand per resolver, rate Pareto-distributed across
    // resolvers, held in a SoA pool driven by the cohort timer wheel: one
    // pending arrival per resolver, no heap node or closure per event.
    auto& simulation = world.simulation();
    DemandPool pool(simulation, world.network(), rng.fork(0xdeaadd),
                    sim::at(config.duration));
    for (auto& member : population.members()) {
      double per_day =
          std::min(config.demand_cap_per_day,
                   rng.pareto(kDemandXmPerDay, kDemandAlpha));
      pool.add(member.resolver.get(), 86400.0 / per_day);
    }

    const std::size_t audit_hook =
        simulation.add_audit_hook([&pool] { pool.validate(); });
    pool.seed_arrivals();
    simulation.run_until(
        sim::at(config.duration), pool.wheel(),
        [&pool](const sim::TimerWheel::Entry& entry) { pool.fire(entry); });
    simulation.remove_audit_hook(audit_hook);
    report.client_queries = pool.client_queries();
  }

  // ENTRADA-style analysis over the two observed servers: group queries
  // for the four nameserver address records by (source, nameserver).  No
  // fold below depends on the groups' order.
  std::map<std::pair<std::uint32_t, std::size_t>, std::vector<sim::Time>>
      group_times;
  std::set<std::uint32_t> sources;
  for (const auto& ident : observed) {
    const auto& log = world.server(ident).log();
    for (const auto& entry : log.entries()) {
      ++report.logged_queries;
      sources.insert(entry.client.value());
      if (entry.qtype != dns::RRType::kA &&
          entry.qtype != dns::RRType::kAAAA) {
        continue;
      }
      const auto ns = std::find_if(
          servers.begin(), servers.end(),
          [&entry](const auto& server) { return server.first == entry.qname; });
      if (ns != servers.end()) {
        const auto ns_index = static_cast<std::size_t>(ns - servers.begin());
        group_times[{entry.client.value(), ns_index}].push_back(entry.time);
      }
    }
  }
  report.unique_resolvers = sources.size();

  std::set<std::uint32_t> single_ips;
  std::set<std::uint32_t> multi_ips;
  std::vector<double> min_interarrival_hours;  // mostly distinct
  for (auto& [key, times] : group_times) {
    std::sort(times.begin(), times.end());
    ++report.groups;
    report.queries_per_group.add(static_cast<double>(times.size()));

    // Figure 3's "filtered" curve: drop retransmission-like duplicates
    // (interarrival <= 2 s).
    std::size_t filtered = 1;
    sim::Duration min_gap{-1};
    for (std::size_t i = 1; i < times.size(); ++i) {
      sim::Duration gap = times[i] - times[i - 1];
      if (gap > 2 * sim::kSecond) {
        ++filtered;
      }
      if (min_gap.count() < 0 || gap < min_gap) {
        min_gap = gap;
      }
    }
    report.queries_per_group_filtered.add(static_cast<double>(filtered));

    if (times.size() == 1) {
      ++report.single_query_groups;
      single_ips.insert(key.first);
    } else {
      multi_ips.insert(key.first);
      min_interarrival_hours.push_back(sim::to_seconds(min_gap) / 3600.0);
    }
  }
  report.min_interarrival_hours =
      stats::Cdf(std::move(min_interarrival_hours));

  if (report.groups > 0) {
    report.single_fraction = static_cast<double>(report.single_query_groups) /
                             static_cast<double>(report.groups);
    report.multi_fraction = 1.0 - report.single_fraction;
  }
  if (!single_ips.empty()) {
    std::size_t also_multi = 0;
    for (std::uint32_t ip : single_ips) {
      if (multi_ips.contains(ip)) ++also_multi;
    }
    report.single_ips_also_multi =
        static_cast<double>(also_multi) / static_cast<double>(single_ips.size());
  }
  return report;
}

}  // namespace dnsttl::crawl
