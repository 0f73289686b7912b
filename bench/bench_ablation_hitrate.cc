// Ablation: simulated cache hit rate vs the analytic TTL-cache models the
// paper builds on (Jung et al. 2002/2003; Moura et al. 2018 measured ~70%
// hit rates for TTLs of 1800-86400 s).  One shared resolver serves Poisson
// client demand for a single record while the TTL sweeps the paper's range;
// the simulation must track the closed form λT/(1+λT).

#include <array>
#include <vector>

#include "bench_common.h"
#include "core/hit_rate_model.h"
#include "core/world.h"
#include "dns/rr.h"
#include "par/pool.h"
#include "resolver/recursive_resolver.h"
#include "stats/table.h"

using namespace dnsttl;

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);
  bench::JsonReport json("ablation_hitrate", args);
  bench::print_header("Ablation",
                      "cache hit rate vs TTL — simulation vs closed form");

  const double lambda = 0.01;  // client lookups/second toward one resolver
  const sim::Duration duration = 24 * sim::kHour;
  const std::vector<dns::Ttl> ttls = {
      dns::Ttl{0},    dns::Ttl{60},    dns::Ttl{300},   dns::Ttl{900},
      dns::Ttl{1800}, dns::Ttl{3600},  dns::Ttl{14400}, dns::Ttl{43200},
      dns::Ttl{86400}};

  stats::TablePrinter table({"TTL (s)", "hit rate (sim)",
                             "hit rate (Jung model)", "auth q/h (sim)",
                             "auth q/h (model)"});

  // Each TTL is one independent grid point with its own world and demand.
  const auto points = par::map_grid(
      args.jobs,
      [&](dns::Ttl ttl) {
        core::World world{core::World::Options{args.seed, 0.0, {}}};
        auto zone = world.add_tld("shop", "ns1", dns::kTtl2Days,
                                  dns::kTtl2Days, dns::kTtl2Days,
                                  net::Location{net::Region::kNA, 1.0});
        zone->add(dns::make_a(dns::Name::from_string("www.shop"), ttl,
                              dns::Ipv4(10, 1, 0, 1)));

        resolver::RecursiveResolver resolver("shared",
                                             resolver::child_centric_config(),
                                             world.network(), world.hints());
        net::Location eu{net::Region::kEU, 1.0};
        resolver.set_node_ref(
            net::NodeRef{world.network().attach(resolver, eu), eu});

        // Poisson arrivals over the duration.
        sim::Rng demand = world.rng().fork(ttl.value());
        dns::Question question{dns::Name::from_string("www.shop"),
                               dns::RRType::kA, dns::RClass::kIN};
        std::uint64_t queries = 0;
        std::uint64_t hits = 0;
        sim::Time t =
            sim::at(sim::approx_seconds(demand.exponential(1.0 / lambda)));
        while (t < sim::at(duration)) {
          auto result = resolver.resolve(question, t);
          ++queries;
          if (result.answered_from_cache) ++hits;
          t += sim::approx_seconds(demand.exponential(1.0 / lambda));
        }

        double hit_rate = queries == 0
                              ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(queries);
        double model = core::poisson_hit_rate(lambda, ttl);
        // The record's misses at the authoritative; NS/A infra fetches
        // excluded by counting only the www.shop queries.
        double hours = sim::to_seconds(duration) / 3600.0;
        double sim_auth = static_cast<double>(queries - hits) / hours;
        double model_auth = core::authoritative_rate(lambda, ttl) * 3600.0;
        return std::array{hit_rate, model, sim_auth, model_auth};
      },
      ttls);

  double worst_gap = 0.0;
  for (std::size_t i = 0; i < ttls.size(); ++i) {
    const auto [hit_rate, model, sim_auth, model_auth] = points[i];
    worst_gap = std::max(worst_gap, std::abs(hit_rate - model));
    table.add_row({std::to_string(ttls[i].value()),
                   stats::fmt("%.3f", hit_rate), stats::fmt("%.3f", model),
                   stats::fmt("%.1f", sim_auth),
                   stats::fmt("%.1f", model_auth)});
  }

  std::printf("%s\n", table.render().c_str());
  std::printf("%s",
              stats::compare_line(
                  "simulation tracks the Jung et al. closed form",
                  "exact in the limit",
                  stats::fmt("max |sim-model| = %.3f", worst_gap))
                  .c_str());
  std::printf("%s",
              stats::compare_line(
                  "demand for the Moura et al. ~70% at TTL 1800 s",
                  "production mixes",
                  stats::fmt("here: lambda=%.4f/s would give 70%%",
                             0.7 / (0.3 * 1800.0)))
                  .c_str());
  std::printf("%s",
              stats::compare_line(
                  "TTLs beyond ~1000 s capture most of the benefit",
                  "Jung et al. 2002",
                  stats::fmt("model: ttl_for_hit_rate(λ=0.01, 90%%)=%u s",
                             core::ttl_for_hit_rate(lambda, 0.9)))
                  .c_str());
  return json.finish();
}
