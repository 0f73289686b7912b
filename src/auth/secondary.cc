#include "auth/secondary.h"

namespace dnsttl::auth {

namespace {

std::uint32_t soa_serial(const dns::Zone& zone) {
  if (auto soa = zone.soa()) {
    return std::get<dns::Shared<dns::SoaRdata>>(soa->rdata)->serial;
  }
  return 0;
}

}  // namespace

Secondary::Secondary(sim::Simulation& simulation,
                     std::shared_ptr<const dns::Zone> primary,
                     AuthServer& server, dns::Ttl refresh_override)
    : simulation_(simulation),
      primary_(std::move(primary)),
      server_(server),
      copy_(std::make_shared<dns::Zone>(primary_->origin())),
      refresh_override_(refresh_override) {
  transfer(simulation_.now());
  server_.add_zone(copy_);
  schedule_next(sim::Duration{});
}

std::uint32_t Secondary::serial() const { return soa_serial(*copy_); }

void Secondary::transfer(sim::Time now) {
  copy_->clear();
  for (const auto& rrset : primary_->all_rrsets()) {
    copy_->replace(rrset);
  }
  last_success_ = now;
  ++transfers_;
}

void Secondary::schedule_next(sim::Duration delay) {
  if (delay == sim::Duration{}) {
    // First call: derive the refresh interval.
    dns::Ttl refresh = refresh_override_;
    if (refresh == dns::Ttl{}) {
      if (auto soa = primary_->soa()) {
        const auto& rdata = std::get<dns::Shared<dns::SoaRdata>>(soa->rdata);
        refresh = rdata->refresh.clamped();
      } else {
        refresh = dns::kTtl2Hours;
      }
    }
    delay = sim::seconds(refresh.value());
  }
  simulation_.schedule_after(delay, [this] { check(); });
}

void Secondary::check() {
  dns::Ttl refresh = refresh_override_;
  dns::Ttl retry{3600};
  dns::Ttl expire{1209600};
  if (auto soa = primary_->soa()) {
    const dns::SoaRdata& rdata =
        *std::get<dns::Shared<dns::SoaRdata>>(soa->rdata);
    if (refresh == dns::Ttl{}) refresh = rdata.refresh.clamped();
    retry = refresh_override_ != dns::Ttl{} ? refresh_override_
                                            : rdata.retry.clamped();
    expire = rdata.expire.clamped();
  }
  if (refresh == dns::Ttl{}) refresh = dns::kTtl2Hours;

  sim::Time now = simulation_.now();
  if (reachable_) {
    if (expired_) {
      // Back from the dead: resume service with a fresh transfer.
      transfer(now);
      server_.add_zone(copy_);
      expired_ = false;
    } else if (soa_serial(*primary_) != soa_serial(*copy_)) {
      transfer(now);
    } else {
      last_success_ = now;
    }
    schedule_next(sim::seconds(refresh.value()));
    return;
  }

  // Primary unreachable: retry faster; expire the copy when too stale.
  if (!expired_ && now - last_success_ > sim::seconds(expire.value())) {
    server_.remove_zone(copy_);
    expired_ = true;
  }
  schedule_next(sim::seconds(retry.value()));
}

}  // namespace dnsttl::auth
