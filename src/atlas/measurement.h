#ifndef DNSTTL_ATLAS_MEASUREMENT_H
#define DNSTTL_ATLAS_MEASUREMENT_H

#include <string>
#include <vector>

#include "atlas/platform.h"
#include "dns/message.h"
#include "sim/simulation.h"
#include "stats/cdf.h"

namespace dnsttl::atlas {

/// Interval between one VP's queries: RIPE Atlas's 600 s, which every
/// measurement in the paper used.
inline constexpr sim::Duration kFrequency = 600 * sim::kSecond;

/// One periodic measurement, RIPE-Atlas style: every VP sends the query
/// every kFrequency for `duration`, with a random phase inside the first
/// interval (Atlas spreads probes across the period).
struct MeasurementSpec {
  std::string name;
  dns::Name qname;
  /// When set, the qname becomes "p<probe-id>.<qname>" — the paper's
  /// PROBEID.sub.cachetest.net trick that defeats cross-probe caching.
  bool per_probe_qname = false;
  dns::RRType qtype = dns::RRType::kAAAA;
  sim::Duration duration = 2 * sim::kHour;
  sim::Time start{};

  /// VP sharding (deterministic parallel execution, see par::).  With
  /// shard_count > 1 only probes with id % shard_count == shard_index are
  /// scheduled, and each probe's query phase comes from an independent
  /// `rng.fork(probe.id)` stream instead of sequential draws, so a probe's
  /// schedule does not depend on which other probes share its shard.  Runs
  /// from different shards of identically-built worlds merge with
  /// MeasurementRun::merge.  shard_count == 1 is byte-identical to the
  /// historical serial path.
  std::size_t shard_count = 1;
  std::size_t shard_index = 0;

  bool covers_probe(int probe_id) const noexcept {
    return shard_count <= 1 ||
           static_cast<std::size_t>(probe_id) % shard_count == shard_index;
  }
};

/// One VP's observation for one round.
struct Sample {
  int probe_id = 0;
  net::Address resolver;
  sim::Time sent{};
  sim::Duration rtt{};
  bool timeout = false;
  dns::Rcode rcode = dns::Rcode::kNoError;
  bool has_answer = false;
  dns::Ttl ttl{};        ///< answer-section TTL for the queried type
  std::string rdata;       ///< answer identity (e.g. the returned address)
};

/// Executes a measurement over the platform inside a simulation and holds
/// the collected samples with the summaries the paper reports.
class MeasurementRun {
 public:
  /// Schedules all VP queries and runs the simulation to the measurement's
  /// end.  Events already scheduled on @p simulation (zone renumberings,
  /// TTL changes) interleave at their own times.
  static MeasurementRun execute(sim::Simulation& simulation,
                                net::Network& network, Platform& platform,
                                MeasurementSpec spec, sim::Rng& rng);

  /// Stitches per-shard runs back into one run: samples are concatenated
  /// strictly in the order given (shard-index order), which keeps the
  /// merged sample stream — and everything derived from it — byte-identical
  /// at any job count.  The merged spec is @p spec with sharding cleared.
  static MeasurementRun merge(MeasurementSpec spec,
                              std::vector<MeasurementRun> shards);

  const MeasurementSpec& spec() const noexcept { return spec_; }
  const std::vector<Sample>& samples() const noexcept { return samples_; }

  std::size_t query_count() const noexcept { return samples_.size(); }
  std::size_t timeout_count() const;
  std::size_t response_count() const { return samples_.size() - timeout_count(); }
  /// Responses carrying the expected answer type.
  std::size_t valid_count() const;
  /// Responses that are not valid answers (Table 2's "disc." row).
  std::size_t discarded_count() const { return response_count() - valid_count(); }

  /// TTLs seen in valid answers (Figures 1 and 2).
  stats::Cdf ttl_cdf() const;

  /// Client-side RTT in milliseconds over valid answers (Figures 10/11).
  stats::Cdf rtt_cdf_ms() const;
  /// Same, restricted to probes in one region (Figure 10b).
  stats::Cdf rtt_cdf_ms(net::Region region, const Platform& platform) const;

 private:
  MeasurementSpec spec_;
  std::vector<Sample> samples_;
};

}  // namespace dnsttl::atlas

#endif  // DNSTTL_ATLAS_MEASUREMENT_H
