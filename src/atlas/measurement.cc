#include "atlas/measurement.h"

#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/audit.h"
#include "sim/timer_wheel.h"

namespace dnsttl::atlas {
namespace {

/// Structure-of-arrays VP scheduler: one timer-wheel entry per vantage
/// point (its next round) instead of one queued event per (VP, round).
/// Simulation::run_until drains the wheel together with its queue.
///
/// Byte-identity with the historical pre-scheduled path rests on two
/// reservations made in the old nested iteration order (probe-major,
/// resolver-minor, round-minor):
///  - each VP's rounds get a contiguous seq block from
///    Simulation::allocate_seq_block, so round k fires with the exact seq
///    the old code's k-th schedule_at would have drawn, and events other
///    code schedules mid-run see the same global counter value;
///  - each VP records the overall index of its round-0 query, so the
///    uint16 DNS message id (historical `next_id++`, wrapping) reproduces.
class VpSchedule {
 public:
  VpSchedule(const sim::Simulation& simulation, net::Network& network,
             std::vector<Sample>& samples, const MeasurementSpec& spec)
      : network_(network),
        samples_(samples),
        wheel_(simulation.now()),
        start_(spec.start),
        qtype_(spec.qtype) {}

  sim::TimerWheel& wheel() noexcept { return wheel_; }

  /// Registers one vantage point; rounds_ may be zero (phase past the
  /// measurement window), in which case no wheel entry is created.
  void add_vp(const Probe* probe, net::Address resolver, dns::Name qname,
              sim::Duration phase, std::uint64_t rounds,
              std::uint64_t first_seq, std::uint64_t first_qid_index) {
    probes_.push_back(probe);
    resolvers_.push_back(resolver);
    qnames_.push_back(std::move(qname));
    phases_.push_back(phase);
    rounds_.push_back(rounds);
    next_round_.push_back(0);
    first_seq_.push_back(first_seq);
    first_qid_.push_back(first_qid_index);
  }

  /// Creates the round-0 wheel entry for every VP with rounds to run.
  void seed_rounds() {
    for (std::size_t vp = 0; vp < probes_.size(); ++vp) {
      if (rounds_[vp] > 0) {
        wheel_.schedule(start_ + phases_[vp], first_seq_[vp],
                        static_cast<std::uint64_t>(vp));
        ++live_;
      }
    }
  }

  /// Sends one VP's next round and schedules the round after it.
  void fire(const sim::TimerWheel::Entry& entry) {
    const auto vp = static_cast<std::size_t>(entry.payload);
    DNSTTL_AUDIT_CHECK("atlas::VpSchedule", vp < probes_.size(),
                       "fired entry references an orphaned VP index");
    const std::uint64_t round = next_round_[vp]++;
    const Probe& probe = *probes_[vp];
    const net::Address resolver = resolvers_[vp];
    const dns::Name& qname = qnames_[vp];
    const auto id =
        static_cast<std::uint16_t>(1 + first_qid_[vp] + round);
    net::MessageLease query(network_);
    net::MessageLease reply(network_);
    query->set_query(id, qname, qtype_);
    query->add_edns();
    const auto outcome =
        network_.exchange(probe.ref, resolver, *query, entry.at, *reply);

    Sample sample;
    sample.probe_id = probe.id;
    sample.resolver = resolver;
    sample.sent = entry.at;
    sample.rtt = outcome.elapsed;
    if (!outcome.answered) {
      sample.timeout = true;
    } else {
      sample.rcode = reply->flags.rcode;
      for (const auto& rr : reply->answers) {
        if (rr.type() == qtype_ && rr.name == qname) {
          sample.has_answer = true;
          sample.ttl = rr.ttl;
          sample.rdata = dns::rdata_to_string(rr.rdata);
          break;
        }
      }
    }
    samples_.push_back(std::move(sample));

    if (round + 1 < rounds_[vp]) {
      wheel_.schedule(start_ + phases_[vp] +
                          kFrequency * static_cast<std::int64_t>(round + 1),
                      first_seq_[vp] + round + 1,
                      static_cast<std::uint64_t>(vp));
    } else {
      --live_;
    }
  }

  /// Deep audit: SoA arrays in step, per-VP round progress within bounds,
  /// live-entry accounting against the wheel, wheel invariants.
  void validate() const {
    constexpr const char* kWhat = "atlas::VpSchedule";
    const std::size_t n = probes_.size();
    DNSTTL_AUDIT_CHECK(kWhat,
                       resolvers_.size() == n && qnames_.size() == n &&
                           phases_.size() == n && rounds_.size() == n &&
                           next_round_.size() == n && first_seq_.size() == n &&
                           first_qid_.size() == n,
                       "SoA arrays out of step");
    for (std::size_t vp = 0; vp < n; ++vp) {
      DNSTTL_AUDIT_CHECK(kWhat, next_round_[vp] <= rounds_[vp],
                         "VP " + std::to_string(vp) +
                             " progressed past its round count");
    }
    DNSTTL_AUDIT_CHECK(kWhat, wheel_.pending() == live_,
                       "wheel pending entries disagree with live-VP "
                       "accounting");
    wheel_.validate();
    check::count_audit();
  }

 private:
  net::Network& network_;
  std::vector<Sample>& samples_;
  sim::TimerWheel wheel_;
  sim::Time start_;
  dns::RRType qtype_;

  // Parallel per-VP arrays (SoA): probe, resolver address, query name,
  // phase inside the period, total rounds, rounds fired, reserved seq
  // block base, overall index of round 0 in the historical qid sequence.
  std::vector<const Probe*> probes_;
  std::vector<net::Address> resolvers_;
  std::vector<dns::Name> qnames_;
  std::vector<sim::Duration> phases_;
  std::vector<std::uint64_t> rounds_;
  std::vector<std::uint64_t> next_round_;
  std::vector<std::uint64_t> first_seq_;
  std::vector<std::uint64_t> first_qid_;

  /// VPs holding a pending wheel entry; equals wheel_.pending() at every
  /// mutation boundary.
  std::size_t live_ = 0;
};

}  // namespace

MeasurementRun MeasurementRun::execute(sim::Simulation& simulation,
                                       net::Network& network,
                                       Platform& platform,
                                       MeasurementSpec spec, sim::Rng& rng) {
  MeasurementRun run;
  run.spec_ = spec;

  VpSchedule schedule(simulation, network, run.samples_, spec);
  std::uint64_t qid_index = 0;  // historical `next_id` minus the initial 1
  for (auto& probe : platform.probes()) {
    if (!spec.covers_probe(probe.id)) {
      continue;
    }
    dns::Name qname = spec.per_probe_qname
                          ? spec.qname.prepend("p" + std::to_string(probe.id))
                          : spec.qname;
    // Sharded runs draw each probe's phase from a forked per-probe stream,
    // so the schedule is a function of the probe alone, not of which other
    // probes happen to precede it in this shard's iteration.
    std::optional<sim::Rng> probe_rng;
    if (spec.shard_count > 1) {
      probe_rng.emplace(
          rng.fork(static_cast<std::uint64_t>(probe.id)));
    }
    sim::Rng& phase_rng = probe_rng ? *probe_rng : rng;
    for (net::Address resolver : probe.resolvers) {
      // Atlas schedules each VP at a random phase within the period.
      sim::Duration phase = sim::Duration(static_cast<std::int64_t>(
          phase_rng.uniform(0.0, static_cast<double>(kFrequency.count()))));
      std::uint64_t rounds = 0;
      if (phase < spec.duration) {
        const std::int64_t span = (spec.duration - phase).count();
        rounds = static_cast<std::uint64_t>(
            (span + kFrequency.count() - 1) / kFrequency.count());
      }
      const std::uint64_t first_seq = simulation.allocate_seq_block(rounds);
      schedule.add_vp(&probe, resolver, qname, phase, rounds, first_seq,
                      qid_index);
      qid_index += rounds;
    }
  }

  const std::size_t audit_hook = simulation.add_audit_hook([&schedule] {
    schedule.validate();
  });
  schedule.seed_rounds();
  simulation.run_until(
      spec.start + spec.duration + sim::kMinute, schedule.wheel(),
      [&schedule](const sim::TimerWheel::Entry& entry) {
        schedule.fire(entry);
      });
  simulation.remove_audit_hook(audit_hook);
  return run;
}

MeasurementRun MeasurementRun::merge(MeasurementSpec spec,
                                     std::vector<MeasurementRun> shards) {
  MeasurementRun merged;
  spec.shard_count = 1;
  spec.shard_index = 0;
  merged.spec_ = std::move(spec);
  std::size_t total = 0;
  for (const auto& shard : shards) {
    total += shard.samples_.size();
  }
  merged.samples_.reserve(total);
  for (auto& shard : shards) {
    for (auto& sample : shard.samples_) {
      merged.samples_.push_back(std::move(sample));
    }
  }
  return merged;
}

std::size_t MeasurementRun::timeout_count() const {
  std::size_t count = 0;
  for (const auto& sample : samples_) {
    if (sample.timeout) ++count;
  }
  return count;
}

std::size_t MeasurementRun::valid_count() const {
  std::size_t count = 0;
  for (const auto& sample : samples_) {
    if (!sample.timeout && sample.has_answer) ++count;
  }
  return count;
}

stats::Cdf MeasurementRun::ttl_cdf() const {
  std::vector<double> ttls;
  for (const auto& sample : samples_) {
    if (!sample.timeout && sample.has_answer) {
      ttls.push_back(static_cast<double>(sample.ttl.value()));
    }
  }
  return stats::Cdf(std::move(ttls));
}

stats::Cdf MeasurementRun::rtt_cdf_ms() const {
  std::vector<double> rtts;
  for (const auto& sample : samples_) {
    if (!sample.timeout && sample.has_answer) {
      rtts.push_back(sim::to_milliseconds(sample.rtt));
    }
  }
  return stats::Cdf(std::move(rtts));
}

stats::Cdf MeasurementRun::rtt_cdf_ms(net::Region region,
                                      const Platform& platform) const {
  std::unordered_map<int, net::Region> probe_region;
  for (const auto& probe : platform.probes()) {
    probe_region[probe.id] = probe.ref.location.region;
  }
  std::vector<double> rtts;
  for (const auto& sample : samples_) {
    if (!sample.timeout && sample.has_answer &&
        probe_region[sample.probe_id] == region) {
      rtts.push_back(sim::to_milliseconds(sample.rtt));
    }
  }
  return stats::Cdf(std::move(rtts));
}

}  // namespace dnsttl::atlas
