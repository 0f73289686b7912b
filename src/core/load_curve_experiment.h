#ifndef DNSTTL_CORE_LOAD_CURVE_EXPERIMENT_H
#define DNSTTL_CORE_LOAD_CURVE_EXPERIMENT_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dns/types.h"
#include "sim/time.h"

namespace dnsttl::core {

/// The paper's §6 load argument run as one experiment: how many queries
/// reach the authoritative side as a function of record TTL, for the two
/// populations the paper measures — the .nl resolver population seen in
/// passive ENTRADA data (§5), and a RIPE-Atlas-style stub population that
/// shares recursive caches.  Every TTL point is evaluated against the SAME
/// realized arrival process (demand does not depend on TTL; only cache
/// expiry does), so the curve is the cache-filter effect alone, directly
/// comparable to the closed-form prediction of core::authoritative_rate.
///
/// This is the full-scale workload-engine exercise: the stub phase drives
/// a million-entry structure-of-arrays pool through the sim::TimerWheel
/// (one pending arrival per stub, cohort iteration per wheel slot), and
/// both phases shard over par:: with per-actor `fork(id)` RNG streams, so
/// the rendered table is byte-identical at any --jobs value.
struct LoadCurveConfig {
  /// Phase 1 — .nl passive demand: independent recursive resolvers, each
  /// with its own cache and a Poisson query stream whose rate is Pareto
  /// distributed across resolvers (the §5 calibration: ~205k resolvers,
  /// ~6.5M queries over two days at scale 1.0).
  std::size_t nl_resolver_count = 205000;
  sim::Duration nl_duration = 48 * sim::kHour;

  /// Phase 2 — Atlas stub population: stubs share recursive caches
  /// (stub -> resolver is id % resolver count), so per-cache demand is the
  /// superposition of its stubs' Poisson streams.  Scale 1.0 is one
  /// million stubs behind 10k resolver caches.
  std::size_t stub_count = 1000000;
  std::size_t stub_resolver_count = 10000;
  sim::Duration stub_duration = 6 * sim::kHour;

  std::uint64_t seed = 1;

  /// Multiplies both population sizes (floored at small minimums so
  /// --quick runs stay meaningful).
  void apply_scale(double scale);
};

/// One TTL point: measured authoritative load for both phases next to the
/// renewal-model prediction (sum over caches of λ/(1+λT) × horizon).
struct LoadCurvePointResult {
  dns::Ttl ttl{};
  std::uint64_t nl_auth_queries = 0;
  std::uint64_t nl_predicted_queries = 0;
  std::uint64_t stub_auth_queries = 0;
  std::uint64_t stub_predicted_queries = 0;
};

/// The full curve plus its canonical rendering.
struct LoadCurveResult {
  LoadCurveConfig config;
  std::uint64_t nl_client_queries = 0;    ///< TTL-independent demand
  std::uint64_t stub_client_queries = 0;  ///< TTL-independent demand
  std::vector<LoadCurvePointResult> points;  ///< swept TTLs, ascending

  /// Integer table (stats::TablePrinter layout) — the byte-identical
  /// golden output the load-curve-smoke ctest compares across --jobs values.
  std::string render() const;
};

/// Runs both phases, up to @p jobs shards concurrently.  Shard layout is a
/// pure function of the workload (par::shard_count_for) and every actor
/// draws from its own forked RNG stream, so the result is byte-identical
/// at any job count.
LoadCurveResult run_load_curve_experiment(const LoadCurveConfig& config,
                                          std::size_t jobs);

}  // namespace dnsttl::core

#endif  // DNSTTL_CORE_LOAD_CURVE_EXPERIMENT_H
