#include "core/load_curve_experiment.h"

#include <array>
#include <cmath>
#include <string>

#include "check/audit.h"
#include "core/hit_rate_model.h"
#include "par/pool.h"
#include "sim/rng.h"
#include "sim/timer_wheel.h"
#include "stats/table.h"

namespace dnsttl::core {
namespace {

constexpr std::uint64_t kNlStream = 0x10adc0;
constexpr std::uint64_t kStubStream = 0x10adc1;

/// TTLs swept: CDN-style 60 s up to a full day, spanning the paper's
/// recommendation window (§7).
constexpr std::array<dns::Ttl, 6> kTtls = {dns::Ttl{60},    dns::Ttl{300},
                                           dns::Ttl{900},   dns::Ttl{3600},
                                           dns::Ttl{21600}, dns::Ttl{86400}};

/// One population's demand: queries/day per actor, Pareto(xm, alpha)
/// capped at cap.
struct Demand {
  double xm_per_day;
  double alpha;
  double cap_per_day;
};

/// .nl resolvers: the §5 calibration (~6.5M queries from ~205k resolvers
/// over two days).
constexpr Demand kNlDemand{3.8, 1.2, 400.0};

/// Atlas stubs: a few queries a day each, capped at one per 15 minutes.
constexpr Demand kStubDemand{4.0, 1.5, 96.0};

/// Per-shard accumulator for one phase: measured authoritative queries per
/// TTL point, the TTL-independent client-query count, and the model
/// prediction per TTL (per-cache closed form, summed in cache order so the
/// double total is independent of job count).
struct ShardTally {
  std::array<std::uint64_t, kTtls.size()> auth{};  ///< per kTtls index
  std::array<double, kTtls.size()> predicted{};    ///< per kTtls index
  std::uint64_t client_queries = 0;
};

/// Draws one actor's demand rate in queries/day: Pareto across the
/// population, capped (the §5 calibration shape).  Must be the actor's
/// FIRST draw so the rate is a pure function of its forked stream.
double draw_per_day(sim::Rng& rng, const Demand& demand) {
  const double per_day = rng.pareto(demand.xm_per_day, demand.alpha);
  return per_day < demand.cap_per_day ? per_day : demand.cap_per_day;
}

/// Phase 1: independent per-resolver caches.  Each resolver's arrival
/// stream is strictly increasing, so the TTL sweep is a scalar walk — no
/// global event order is needed when caches do not interact.
ShardTally run_nl_shard(const LoadCurveConfig& config, std::size_t shard,
                        std::size_t shards, const sim::Rng& nl_rng) {
  ShardTally tally;
  const double horizon_s = sim::to_seconds(config.nl_duration);
  std::vector<sim::Time> expiry(kTtls.size());
  for (std::size_t r = shard; r < config.nl_resolver_count; r += shards) {
    sim::Rng actor = nl_rng.fork(r);
    const double per_day = draw_per_day(actor, kNlDemand);
    const double mean_gap_s = 86400.0 / per_day;
    const double lambda = per_day / 86400.0;
    for (std::size_t ti = 0; ti < kTtls.size(); ++ti) {
      expiry[ti] = sim::Time{};
      tally.predicted[ti] +=
          authoritative_rate(lambda, kTtls[ti]) * horizon_s;
    }
    sim::Time at{};
    for (;;) {
      at = at + sim::approx_seconds(actor.exponential(mean_gap_s));
      if (at >= sim::at(config.nl_duration)) {
        break;
      }
      ++tally.client_queries;
      for (std::size_t ti = 0; ti < kTtls.size(); ++ti) {
        if (at >= expiry[ti]) {
          ++tally.auth[ti];
          expiry[ti] = at + sim::seconds(kTtls[ti].value());
        }
      }
    }
  }
  return tally;
}

/// Phase 2: stubs share resolver caches, so arrivals at one cache must be
/// replayed in global time order.  The shard owns every resolver with
/// r % shards == shard plus all of their stubs (stub -> resolver is
/// s % resolver_count, so cache sharing never crosses a shard), and drives
/// them as a structure-of-arrays pool through one cohort timer wheel: one
/// pending arrival per stub, payload = pool index.
ShardTally run_stub_shard(const LoadCurveConfig& config, std::size_t shard,
                          std::size_t shards, const sim::Rng& stub_rng) {
  ShardTally tally;
  const double horizon_s = sim::to_seconds(config.stub_duration);
  const sim::Time end = sim::at(config.stub_duration);
  const std::size_t resolver_count = config.stub_resolver_count;

  // SoA stub pool, filled resolver-major (so per-cache demand sums and the
  // wheel's initial seq order are fixed by the workload, not the machine).
  std::vector<sim::Rng> rngs;
  std::vector<double> mean_gap_s;
  std::vector<std::uint32_t> cache_index;  ///< shard-local resolver slot
  std::vector<double> cache_lambda;
  sim::TimerWheel wheel;
  std::uint64_t next_seq = 0;

  for (std::size_t r = shard; r < resolver_count; r += shards) {
    const auto local = static_cast<std::uint32_t>(cache_lambda.size());
    cache_lambda.push_back(0.0);
    for (std::size_t s = r; s < config.stub_count; s += resolver_count) {
      sim::Rng actor = stub_rng.fork(s);
      const double per_day = draw_per_day(actor, kStubDemand);
      cache_lambda[local] += per_day / 86400.0;
      const double gap = actor.exponential(86400.0 / per_day);
      const sim::Time first = sim::Time{} + sim::approx_seconds(gap);
      if (first < end) {
        wheel.schedule(first, next_seq++,
                       static_cast<std::uint64_t>(rngs.size()));
      }
      rngs.push_back(actor);
      mean_gap_s.push_back(86400.0 / per_day);
      cache_index.push_back(local);
    }
  }
  for (std::size_t ti = 0; ti < kTtls.size(); ++ti) {
    for (double lambda : cache_lambda) {
      tally.predicted[ti] +=
          authoritative_rate(lambda, kTtls[ti]) * horizon_s;
    }
  }

  // Replay: per-cache expiry per TTL point, one wheel pop per arrival.
  std::vector<sim::Time> expiry(kTtls.size() * cache_lambda.size(),
                                sim::Time{});
  std::uint64_t pops_since_audit = 0;
  while (!wheel.empty()) {
    const sim::TimerWheel::Entry entry = wheel.pop_head();
    const auto stub = static_cast<std::size_t>(entry.payload);
    DNSTTL_AUDIT_CHECK("core::LoadCurveExperiment", stub < rngs.size(),
                       "fired entry references an orphaned stub index");
    ++tally.client_queries;
    const std::size_t base =
        static_cast<std::size_t>(cache_index[stub]) * kTtls.size();
    for (std::size_t ti = 0; ti < kTtls.size(); ++ti) {
      if (entry.at >= expiry[base + ti]) {
        ++tally.auth[ti];
        expiry[base + ti] =
            entry.at + sim::seconds(kTtls[ti].value());
      }
    }
    const sim::Time next =
        entry.at + sim::approx_seconds(rngs[stub].exponential(
                       mean_gap_s[stub]));
    if (next < end) {
      wheel.schedule(next, next_seq++, entry.payload);
    }
    if constexpr (check::kAuditEnabled) {
      if (++pops_since_audit >= 4096) {
        pops_since_audit = 0;
        wheel.validate();
      }
    }
  }
  return tally;
}

/// Folds per-shard tallies strictly in shard order.
void fold(std::vector<ShardTally> tallies,
          std::uint64_t& client_queries,
          std::vector<std::uint64_t>& auth_out,
          std::vector<std::uint64_t>& predicted_out) {
  std::vector<double> predicted(kTtls.size(), 0.0);
  for (const ShardTally& tally : tallies) {
    client_queries += tally.client_queries;
    for (std::size_t ti = 0; ti < kTtls.size(); ++ti) {
      auth_out[ti] += tally.auth[ti];
      predicted[ti] += tally.predicted[ti];
    }
  }
  for (std::size_t ti = 0; ti < kTtls.size(); ++ti) {
    predicted_out[ti] =
        static_cast<std::uint64_t>(std::llround(predicted[ti]));
  }
}

}  // namespace

void LoadCurveConfig::apply_scale(double scale) {
  auto scaled = [scale](std::size_t n, std::size_t floor_at) {
    const auto s = static_cast<std::size_t>(static_cast<double>(n) * scale);
    return s < floor_at ? floor_at : s;
  };
  nl_resolver_count = scaled(nl_resolver_count, 200);
  stub_count = scaled(stub_count, 1000);
  stub_resolver_count = scaled(stub_resolver_count, 20);
}

LoadCurveResult run_load_curve_experiment(const LoadCurveConfig& config,
                                          std::size_t jobs) {
  LoadCurveResult result;
  result.config = config;
  result.points.resize(kTtls.size());
  for (std::size_t ti = 0; ti < kTtls.size(); ++ti) {
    result.points[ti].ttl = kTtls[ti];
  }

  sim::Rng root(config.seed);
  const sim::Rng nl_rng = root.fork(kNlStream);
  const sim::Rng stub_rng = root.fork(kStubStream);

  {
    const std::size_t shards = par::shard_count_for(config.nl_resolver_count);
    auto tallies = par::map_shards(shards, jobs, [&](std::size_t shard) {
      return run_nl_shard(config, shard, shards, nl_rng);
    });
    std::vector<std::uint64_t> auth(kTtls.size(), 0);
    std::vector<std::uint64_t> predicted(kTtls.size(), 0);
    fold(std::move(tallies), result.nl_client_queries, auth, predicted);
    for (std::size_t ti = 0; ti < kTtls.size(); ++ti) {
      result.points[ti].nl_auth_queries = auth[ti];
      result.points[ti].nl_predicted_queries = predicted[ti];
    }
  }
  {
    const std::size_t shards =
        par::shard_count_for(config.stub_resolver_count);
    auto tallies = par::map_shards(shards, jobs, [&](std::size_t shard) {
      return run_stub_shard(config, shard, shards, stub_rng);
    });
    std::vector<std::uint64_t> auth(kTtls.size(), 0);
    std::vector<std::uint64_t> predicted(kTtls.size(), 0);
    fold(std::move(tallies), result.stub_client_queries, auth, predicted);
    for (std::size_t ti = 0; ti < kTtls.size(); ++ti) {
      result.points[ti].stub_auth_queries = auth[ti];
      result.points[ti].stub_predicted_queries = predicted[ti];
    }
  }
  return result;
}

namespace {

long long whole_seconds(sim::Duration d) {
  return static_cast<long long>(d / sim::kSecond);
}

/// Signed per-mille model error from two integer counts (no float in the
/// rendered bytes).
long long err_permille(std::uint64_t measured, std::uint64_t predicted) {
  if (predicted == 0) {
    return 0;
  }
  const auto m = static_cast<long long>(measured);
  const auto p = static_cast<long long>(predicted);
  return (1000 * (m - p) + (m >= p ? p / 2 : -(p / 2))) / p;
}

}  // namespace

std::string LoadCurveResult::render() const {
  std::string out = stats::fmt(
      ".nl passive: %zu resolvers, %llds horizon, %llu client queries\n",
      config.nl_resolver_count, whole_seconds(config.nl_duration),
      static_cast<unsigned long long>(nl_client_queries));
  out += stats::fmt(
      "atlas stubs: %zu stubs via %zu caches, %llds horizon, %llu client "
      "queries\n",
      config.stub_count, config.stub_resolver_count,
      whole_seconds(config.stub_duration),
      static_cast<unsigned long long>(stub_client_queries));
  stats::TablePrinter table({"ttl", "nl_auth", "nl_pred", "err%o",
                             "stub_auth", "stub_pred", "err%o"});
  for (const LoadCurvePointResult& p : points) {
    table.add_row(
        {std::to_string(p.ttl.value()), std::to_string(p.nl_auth_queries),
         std::to_string(p.nl_predicted_queries),
         stats::fmt("%+lld",
                    err_permille(p.nl_auth_queries, p.nl_predicted_queries)),
         std::to_string(p.stub_auth_queries),
         std::to_string(p.stub_predicted_queries),
         stats::fmt("%+lld", err_permille(p.stub_auth_queries,
                                          p.stub_predicted_queries))});
  }
  return out + table.render();
}

}  // namespace dnsttl::core
