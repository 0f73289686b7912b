#include "core/outage_experiment.h"

#include <memory>
#include <string>

#include "dns/rr.h"
#include "par/pool.h"
#include "resolver/config.h"
#include "resolver/recursive_resolver.h"
#include "stats/table.h"

namespace dnsttl::core {

namespace {

/// The child nameserver ident World::add_tld registers ("<ns>.<tld>.").
constexpr const char* kChildServer = "ns.example.";

/// Infrastructure (delegation NS + glue) TTL: long enough that the
/// delegation never expires inside the horizon, so the sweep isolates the
/// *record* TTL.
constexpr dns::Ttl kInfraTtl{7 * 24 * 3600};

/// One client query every 10 s: dense enough to place each TTL's lapse
/// inside the window to within a few queries.
constexpr sim::Duration kQueryInterval = 10 * sim::kSecond;

long long whole_seconds(sim::Duration d) {
  return static_cast<long long>(d.count() / sim::kSecond.count());
}

}  // namespace

OutagePointResult run_outage_point(const OutageConfig& config, dns::Ttl ttl,
                                   bool serve_stale) {
  World::Options options;
  options.seed = config.seed;
  options.loss_rate = 0.0;  // the fault window is the only failure measured
  World world(options);

  const net::Location site{};
  auto zone = world.add_tld("example", "ns", kInfraTtl, kInfraTtl, kInfraTtl,
                            site);
  const auto qname = dns::Name::from_string("www.example");
  zone->add(dns::make_a(qname, ttl, dns::Ipv4(192, 0, 2, 10)));

  resolver::ResolverConfig rconfig = resolver::child_centric_config();
  rconfig.serve_stale = serve_stale;
  resolver::RecursiveResolver resolver("res", rconfig, world.network(),
                                       world.hints());
  resolver.set_node_ref(
      net::NodeRef{world.network().attach(resolver, site), site});

  world.network().add_outage(
      world.address_of(kChildServer), sim::at(config.outage_start),
      sim::at(config.outage_start + config.outage_duration));

  OutagePointResult result;
  result.ttl = ttl;
  result.serve_stale = serve_stale;

  const dns::Question question{qname, dns::RRType::kA, dns::RClass::kIN};
  for (sim::Duration t{}; t < config.horizon; t += kQueryInterval) {
    const auto outcome = resolver.resolve(question, sim::at(t));
    const bool ok = outcome.response.flags.rcode == dns::Rcode::kNoError &&
                    !outcome.response.answers.empty();
    ++result.queries;
    if (ok) {
      ++result.answered;
    } else {
      ++result.failed;
    }
    if (outcome.served_stale) {
      ++result.stale_answers;
    }
    if (config.outage_start <= t &&
        t < config.outage_start + config.outage_duration) {
      ++result.window_queries;
      if (!ok) {
        ++result.window_failed;
      }
      if (outcome.served_stale) {
        ++result.window_stale;
      }
    }
  }

  result.auth_queries = world.server(kChildServer).queries_answered();
  result.resurrections = resolver.cache().stats().resurrections;
  result.backoffs = resolver.stats().backoffs;
  result.outage_timeouts = world.network().outage_timeouts();
  return result;
}

OutageResult run_outage_experiment(const OutageConfig& config,
                                   std::size_t jobs) {
  OutageResult result;
  result.config = config;
  result.points = par::map_grid(
      jobs,
      [&](bool serve_stale, dns::Ttl ttl) {
        return run_outage_point(config, ttl, serve_stale);
      },
      config.serve_stale_variants, config.ttls);
  return result;
}

std::string OutageResult::render() const {
  std::string out = stats::fmt(
      "fault window: outage %llds..%llds (horizon %llds, query every %llds)\n",
      whole_seconds(config.outage_start),
      whole_seconds(config.outage_start + config.outage_duration),
      whole_seconds(config.horizon), whole_seconds(kQueryInterval));
  stats::TablePrinter table({"ttl", "stale", "queries", "ok", "fail",
                             "sstale", "win_fail", "win_stale", "auth_q",
                             "resurr", "backoff", "faults"});
  for (const OutagePointResult& p : points) {
    table.add_row({std::to_string(p.ttl.value()), p.serve_stale ? "on" : "off",
                   std::to_string(p.queries), std::to_string(p.answered),
                   std::to_string(p.failed), std::to_string(p.stale_answers),
                   std::to_string(p.window_failed),
                   std::to_string(p.window_stale),
                   std::to_string(p.auth_queries),
                   std::to_string(p.resurrections), std::to_string(p.backoffs),
                   std::to_string(p.outage_timeouts)});
  }
  return out + table.render();
}

}  // namespace dnsttl::core
