#ifndef DNSTTL_CORE_OUTAGE_EXPERIMENT_H
#define DNSTTL_CORE_OUTAGE_EXPERIMENT_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/world.h"

namespace dnsttl::core {

/// The resilience experiment the paper's §7 discussion (and the Dyn-outage
/// motivation in §1) asks for: how does record TTL trade user-visible
/// failure against authoritative query load when the authoritative side
/// goes dark for a while?  A grid of (TTL, serve-stale) points, each run in
/// its own private World with one scripted outage window
/// (net::Network::add_outage) over the zone's only nameserver, probed by a
/// single resolver on a fixed query cadence.
struct OutageConfig {
  /// Record TTLs to sweep — the paper's interesting span runs from
  /// CDN-style 60 s up past the Google-cap plateau.
  std::vector<dns::Ttl> ttls = {dns::Ttl{60}, dns::Ttl{300}, dns::Ttl{3600},
                                dns::Ttl{21600}};
  /// RFC 8767 variants to compare at every TTL.
  std::vector<bool> serve_stale_variants = {false, true};

  sim::Duration horizon = 2 * sim::kHour;        ///< total probing span
  sim::Duration outage_start = 30 * sim::kMinute;  ///< window offset
  sim::Duration outage_duration = 1 * sim::kHour;  ///< window length

  std::uint64_t seed = 1;
};

/// Outcome of one (TTL, serve-stale) grid point.
struct OutagePointResult {
  dns::Ttl ttl{};
  bool serve_stale = false;

  std::uint64_t queries = 0;   ///< client queries issued over the horizon
  std::uint64_t answered = 0;  ///< NOERROR with a non-empty answer section
  std::uint64_t failed = 0;    ///< everything else (SERVFAIL, empty)
  // lint:allow(raw-time-param) event counter, not a time quantity
  std::uint64_t stale_answers = 0;  ///< answers served past expiry

  std::uint64_t window_queries = 0;  ///< of which, inside the fault window:
  std::uint64_t window_failed = 0;
  // lint:allow(raw-time-param) event counter, not a time quantity
  std::uint64_t window_stale = 0;

  std::uint64_t auth_queries = 0;   ///< load on the child nameserver
  std::uint64_t resurrections = 0;  ///< RFC 8767 expired-entry refreshes
  std::uint64_t backoffs = 0;       ///< servers benched by the resolver
  // lint:allow(raw-time-param) event counter, not a time quantity
  std::uint64_t outage_timeouts = 0;  ///< exchanges killed by the outage
};

/// The full grid plus its canonical rendering.
struct OutageResult {
  OutageConfig config;
  std::vector<OutagePointResult> points;  ///< serve-stale major, TTL minor

  /// Integer table (stats::TablePrinter layout) — the byte-identical
  /// golden output that the chaos regression tier compares across --jobs
  /// values and build trees.  Deliberately free of floats and timing.
  std::string render() const;
};

/// Runs one grid point in a fresh private World (deterministic: the result
/// is a pure function of config + the point).
OutagePointResult run_outage_point(const OutageConfig& config, dns::Ttl ttl,
                                   bool serve_stale);

/// Runs the whole grid through par::map_grid, up to @p jobs points
/// concurrently.  Each point owns its World, so the merged result is
/// byte-identical at any job count.
OutageResult run_outage_experiment(const OutageConfig& config,
                                   std::size_t jobs);

}  // namespace dnsttl::core

#endif  // DNSTTL_CORE_OUTAGE_EXPERIMENT_H
