#include "resolver/recursive_resolver.h"

#include "dns/dnssec.h"

#include <algorithm>
#include <map>
#include <utility>

namespace dnsttl::resolver {

namespace {

/// RFC 8767 §5 stale-refresh: after serving a name stale, answer it from
/// the stale entry this long without re-trying the upstreams just proven
/// dead, so a popular name costs one resolution timeout per window.
constexpr sim::Duration kStaleRefresh = 30 * sim::kSecond;

/// Smoothed-RTT selection rotates among servers this close to the fastest,
/// so equally-near servers still share load (§3.4).
constexpr double kSrttBandMs = 20.0;

/// Exponential backoff (BIND's "server marked bad", Unbound's infra-cache
/// probation): this many consecutive timeouts bench a server for
/// kInitialBackoff, doubled per repeat offense up to kMaxBackoff.
constexpr int kTimeoutsBeforeBackoff = 2;
constexpr sim::Duration kInitialBackoff = 2 * sim::kSecond;
constexpr sim::Duration kMaxBackoff = 5 * sim::kMinute;

/// Depth guard for nested NS-address and DNSKEY sub-resolutions.
constexpr int kMaxNsResolutionDepth = 6;

/// Prefetch refreshes a hit with less than this share of its TTL left.
constexpr double kPrefetchFraction = 0.1;

/// Groups a record list into RRsets keyed by (owner, type).
std::vector<dns::RRset> group_rrsets(
    const std::vector<dns::ResourceRecord>& records) {
  std::map<std::pair<dns::Name, dns::RRType>, std::vector<dns::ResourceRecord>>
      groups;
  for (const auto& rr : records) {
    groups[{rr.name, rr.type()}].push_back(rr);
  }
  std::vector<dns::RRset> out;
  out.reserve(groups.size());
  for (auto& [key, members] : groups) {
    out.push_back(dns::RRset::from_records(members));
  }
  return out;
}

bool is_address_type(dns::RRType type) {
  return type == dns::RRType::kA || type == dns::RRType::kAAAA;
}

/// A recursive resolver's reply to @p question: QR and RA set, @p rcode,
/// and @p answers as given.
dns::Message reply(const dns::Question& question, dns::Rcode rcode,
                   std::vector<dns::ResourceRecord> answers = {}) {
  dns::Message response;
  response.flags.qr = true;
  response.flags.ra = true;
  response.flags.rcode = rcode;
  response.questions.push_back(question);
  response.answers = std::move(answers);
  return response;
}

}  // namespace

RecursiveResolver::RecursiveResolver(std::string ident, ResolverConfig config,
                                     net::Network& network, RootHints hints)
    : ident_(std::move(ident)),
      config_(config),
      network_(network),
      hints_(std::move(hints)) {
  cache::Cache::Config cache_config;
  cache_config.max_ttl = config_.max_ttl;
  cache_config.min_ttl = config_.min_ttl;
  cache_config.link_glue_to_ns = config_.link_glue_to_ns;
  cache_config.serve_stale = config_.serve_stale;
  // Resolvers that do not link glue to NS records are the "trust the cache
  // to its TTL" style: they also keep live entries across same-credibility
  // refreshes (§4.2's minority that rides the A record to 120 minutes).
  cache_config.replace_same_credibility = config_.link_glue_to_ns;
  cache_config.prefer_parent_delegation =
      config_.centricity == Centricity::kParentCentric;
  cache_ = cache::Cache(cache_config);
}

void RecursiveResolver::flush() {
  cache_.clear();
  sticky_pins_.clear();
  stale_refresh_until_.clear();
}

cache::Credibility RecursiveResolver::answer_threshold() const {
  return config_.centricity == Centricity::kParentCentric
             ? cache::Credibility::kGlue
             : cache::Credibility::kNonAuthAnswer;
}

std::optional<net::ServerReply> RecursiveResolver::handle_query(
    const dns::Message& query, net::Address /*client*/, sim::Time now) {
  if (query.questions.empty()) {
    auto response = dns::Message::make_response(query);
    response.flags.rcode = dns::Rcode::kFormErr;
    return net::ServerReply{std::move(response), sim::Duration{}};
  }
  ResolutionResult result = resolve(query.question(), now);
  result.response.id = query.id;
  result.response.flags.rd = query.flags.rd;
  return net::ServerReply{std::move(result.response), result.elapsed};
}

ResolutionResult RecursiveResolver::resolve(const dns::Question& question,
                                            sim::Time now) {
  ++stats_.client_queries;
  ResolutionResult result;

  // RFC 7706 local root mirror: answered before anything else, with full
  // (undecremented) TTLs and no wire traffic.
  if (auto local = answer_from_local_root(question)) {
    ++stats_.referral_answers;
    result.response = std::move(*local);
    result.answered_from_referral = true;
    return result;
  }

  if (auto cached = answer_from_cache(question, now)) {
    ++stats_.cache_answers;
    maybe_prefetch(question, now);
    result.response = std::move(*cached);
    result.answered_from_cache = true;
    return result;
  }

  if (auto negative =
          cache_.lookup_negative(question.qname, question.qtype, now)) {
    ++stats_.cache_answers;
    result.response = reply(question, negative->rcode);
    result.answered_from_cache = true;
    return result;
  }

  // RFC 8767 §5 stale-refresh: a question served stale moments ago keeps
  // being answered from the stale entry — upstreams are NOT re-tried —
  // until the suppression window lapses, so a popular dead name costs one
  // resolution timeout per window, not one per client query.
  if (config_.serve_stale) {
    auto key = std::make_pair(question.qname, question.qtype);
    if (auto it = stale_refresh_until_.find(key);
        it != stale_refresh_until_.end()) {
      if (now < it->second) {
        if (auto stale =
                cache_.lookup(question.qname, question.qtype, now, true);
            stale && stale->stale) {
          ++stats_.stale_answers;
          ++stats_.stale_refresh_answers;
          result.response = reply(question, dns::Rcode::kNoError,
                                  stale->rrset.to_records());
          result.answered_from_cache = true;
          result.served_stale = true;
          return result;
        }
      }
      // Window lapsed, or the stale copy is gone (purged or resurrected
      // through another question): resolve normally again.
      stale_refresh_until_.erase(it);
    }
  }

  Context ctx;
  dns::Message response = resolve_iterative(question, now, ctx);

  if (response.flags.rcode == dns::Rcode::kServFail && config_.serve_stale) {
    // RFC 8767: all upstreams failed; fall back to expired data.
    if (auto stale =
            cache_.lookup(question.qname, question.qtype, now, true);
        stale && stale->stale) {
      ++stats_.stale_answers;
      // Arm the stale-refresh window: follow-up queries for this name are
      // served from the stale entry without re-proving the outage.
      stale_refresh_until_[{question.qname, question.qtype}] =
          now + kStaleRefresh;
      result.response = reply(question, dns::Rcode::kNoError,
                              stale->rrset.to_records());
      result.elapsed = ctx.elapsed;
      result.served_stale = true;
      result.upstream_queries = ctx.upstream_queries;
      return result;
    }
  }

  if (response.flags.rcode == dns::Rcode::kServFail) {
    ++stats_.servfails;
  } else {
    ++stats_.full_resolutions;
    // A successful resolution supersedes any stale-refresh suppression.
    stale_refresh_until_.erase({question.qname, question.qtype});
  }
  result.response = std::move(response);
  result.elapsed = ctx.elapsed;
  result.upstream_queries = ctx.upstream_queries;
  return result;
}

std::optional<dns::Message> RecursiveResolver::answer_from_local_root(
    const dns::Question& question) {
  if (!config_.local_root || !local_root_zone_) {
    return std::nullopt;
  }
  auto result = local_root_zone_->lookup(question.qname, question.qtype);
  using Kind = dns::LookupResult::Kind;
  if (result.kind == Kind::kAnswer) {
    return reply(question, dns::Rcode::kNoError, std::move(result.answers));
  }
  if (result.kind == Kind::kDelegation &&
      config_.centricity == Centricity::kParentCentric) {
    // Parent-centric + mirror: the referral content answers NS/address
    // questions about TLDs directly, always at the full parent TTL — the
    // "full 172800 s" VPs of §3.2.
    dns::Message referral;
    referral.flags.qr = true;
    referral.questions.push_back(question);
    referral.authorities = std::move(result.authorities);
    referral.additionals = std::move(result.additionals);
    if (auto answer = answer_from_referral(question, referral)) {
      return answer;
    }
  }
  return std::nullopt;
}

std::optional<dns::Message> RecursiveResolver::answer_from_cache(
    const dns::Question& question, sim::Time now) {
  const auto threshold = answer_threshold();
  std::vector<dns::ResourceRecord> chain;
  dns::Name qname = question.qname;

  for (int hop = 0; hop < 9; ++hop) {
    if (auto hit = cache_.lookup(qname, question.qtype, now)) {
      if (static_cast<int>(hit->credibility) >= static_cast<int>(threshold)) {
        auto records = hit->rrset.to_records();
        chain.insert(chain.end(), records.begin(), records.end());
        return positive_response(question, std::move(chain));
      }
      return std::nullopt;  // data cached but not credible enough to serve
    }
    if (question.qtype == dns::RRType::kCNAME) {
      return std::nullopt;
    }
    auto cname = cache_.lookup(qname, dns::RRType::kCNAME, now);
    if (!cname || static_cast<int>(cname->credibility) <
                      static_cast<int>(threshold)) {
      return std::nullopt;
    }
    auto records = cname->rrset.to_records();
    chain.insert(chain.end(), records.begin(), records.end());
    qname = std::get<dns::CnameRdata>(records.front().rdata).target;
  }
  return std::nullopt;
}

dns::Message RecursiveResolver::positive_response(
    const dns::Question& question,
    std::vector<dns::ResourceRecord> answers) const {
  for (auto& rr : answers) {
    rr.ttl = std::clamp(rr.ttl, config_.min_ttl, config_.max_ttl);
  }
  return reply(question, dns::Rcode::kNoError, std::move(answers));
}

std::optional<dns::Message> RecursiveResolver::answer_from_referral(
    const dns::Question& question, const dns::Message& referral) {
  if (question.qtype == dns::RRType::kNS) {
    std::vector<dns::ResourceRecord> matches;
    for (const auto& rr : referral.authorities) {
      if (rr.name == question.qname && rr.type() == dns::RRType::kNS) {
        matches.push_back(rr);
      }
    }
    if (!matches.empty()) {
      return positive_response(question, std::move(matches));
    }
  }
  if (is_address_type(question.qtype)) {
    std::vector<dns::ResourceRecord> matches;
    for (const auto& rr : referral.additionals) {
      if (rr.name == question.qname && rr.type() == question.qtype) {
        matches.push_back(rr);
      }
    }
    if (!matches.empty()) {
      return positive_response(question, std::move(matches));
    }
  }
  return std::nullopt;
}

std::optional<dns::Name> RecursiveResolver::ingest_response(
    const dns::Message& response, const dns::Name& zone, sim::Time now) {
  const bool referral = !response.flags.aa && response.answers.empty() &&
                        response.flags.rcode == dns::Rcode::kNoError;

  // Which NS owners does this response establish?  Used for glue linkage.
  std::optional<dns::Name> cut;
  for (const auto& rrset : group_rrsets(response.authorities)) {
    if (rrset.type() != dns::RRType::kNS) {
      continue;  // SOA of negative answers is consumed by the caller
    }
    if (referral) {
      if (!rrset.name().is_strict_subdomain_of(zone)) {
        continue;  // upward/lame referral: ignore
      }
      if (!cut || rrset.name().is_strict_subdomain_of(*cut)) {
        cut = rrset.name();
      }
      cache_.insert(rrset, cache::Credibility::kGlue, now);
    } else {
      cache_.insert(rrset, cache::Credibility::kNonAuthAnswer, now);
    }
  }

  // Answer-section data.
  const auto answer_cred = response.flags.aa
                               ? cache::Credibility::kAuthAnswer
                               : cache::Credibility::kNonAuthAnswer;
  for (const auto& rrset : group_rrsets(response.answers)) {
    std::optional<dns::Name> link;
    if (is_address_type(rrset.type())) {
      link = linked_ns_owner_for(rrset.name(), now);
    }
    cache_.insert(rrset, answer_cred, now, link);
  }

  // Additional-section addresses: glue on referrals, hints otherwise.
  for (const auto& rrset : group_rrsets(response.additionals)) {
    if (!is_address_type(rrset.type())) {
      continue;
    }
    if (referral && cut && rrset.name().in_bailiwick_of(*cut)) {
      cache_.insert(rrset, cache::Credibility::kGlue, now, *cut);
    } else if (referral && cut) {
      // Sibling glue: still parent-sourced, linked to the cut's NS set.
      cache_.insert(rrset, cache::Credibility::kGlue, now, *cut);
    } else {
      cache_.insert(rrset, cache::Credibility::kAdditional, now,
                    linked_ns_owner_for(rrset.name(), now));
    }
  }
  return referral ? cut : std::nullopt;
}

std::optional<dns::Name> RecursiveResolver::linked_ns_owner_for(
    const dns::Name& owner, sim::Time now) {
  if (!config_.link_glue_to_ns) {
    return std::nullopt;
  }
  // An address record is delegation infrastructure when its owner appears
  // as an NS target of an ancestor zone; in that case its cache lifetime is
  // tied to that NS RRset (the paper's §4.2 in-bailiwick linkage).
  for (dns::Name zone = owner.parent();; zone = zone.parent()) {
    if (auto ns = cache_.peek(zone, dns::RRType::kNS, now)) {
      for (const auto& rdata : ns->rrset.rdatas()) {
        if (std::get<dns::NsRdata>(rdata).nsdname == owner &&
            owner.in_bailiwick_of(zone)) {
          return zone;
        }
      }
    }
    if (zone.is_root()) {
      return std::nullopt;
    }
  }
}

dns::Name RecursiveResolver::find_servers(
    const dns::Name& qname, sim::Time now, Context& ctx,
    std::vector<ServerCandidate>& servers, const dns::Name& floor) {
  servers.clear();

  for (dns::Name zone = qname;; zone = zone.parent()) {
    // Sticky resolvers reuse the first server that ever answered
    // authoritatively for a zone (§4.4).  The pin is consulted at the same
    // depth as the cache walk, so referral progress to deeper zones still
    // happens during bootstrap, but once a zone is pinned its server is
    // used forever, TTLs notwithstanding.
    if (config_.sticky) {
      if (auto it = sticky_pins_.find(zone); it != sticky_pins_.end()) {
        servers.push_back(it->second);
        return zone;
      }
    }
    // RFC 7706: the mirror supplies root-zone delegations locally.
    if (zone.is_root() && config_.local_root && local_root_zone_) {
      auto result = local_root_zone_->lookup(qname, dns::RRType::kNS);
      if (result.kind == dns::LookupResult::Kind::kDelegation) {
        dns::Message synthetic;
        synthetic.flags.qr = true;
        synthetic.authorities = result.authorities;
        synthetic.additionals = result.additionals;
        auto cut = ingest_response(synthetic, dns::Name{}, now);
        if (cut) {
          // Re-walk down to the TLD cut now that its delegation is cached.
          return find_servers(qname, now, ctx, servers, *cut);
        }
      }
    }

    if (auto ns = cache_.peek(zone, dns::RRType::kNS, now)) {
      if (collect_addresses(*ns, now, ctx, servers)) {
        return zone;
      }
    }
    if (zone == floor || zone.is_root()) {
      break;
    }
  }

  // Fall back to the compiled-in root hints.
  for (const auto& entry : hints_.servers) {
    servers.push_back(ServerCandidate{entry.name, entry.address});
  }
  rotate(servers, now);
  return dns::Name{};
}

bool RecursiveResolver::collect_addresses(
    const cache::CacheHit& ns, sim::Time now, Context& ctx,
    std::vector<ServerCandidate>& servers) {
  std::vector<dns::Name> unresolved;
  bool verified_one = false;
  for (const auto& rdata : ns.rrset.rdatas()) {
    const auto& ns_name = std::get<dns::NsRdata>(rdata).nsdname;
    auto hit = cache_.peek(ns_name, dns::RRType::kA, now);
    if (hit && config_.fetch_authoritative_ns_addresses &&
        ctx.depth == 0 && !verified_one &&
        static_cast<int>(hit->credibility) <
            static_cast<int>(cache::Credibility::kNonAuthAnswer) &&
        std::find(ctx.fetching.begin(), ctx.fetching.end(), ns_name) ==
            ctx.fetching.end()) {
      // Address known only via glue: verify it against the child zone
      // (Unbound-style target fetching).  The AA copy is cached linked to
      // its covering NS set, so in-bailiwick lifetimes stay tied (§4.2)
      // while the resolver becomes visible at the child's authoritatives as
      // periodic NS-address queries (§3.4).  The fetch runs off the
      // client's critical path (opportunistic revalidation): this query is
      // answered with the data at hand.
      verified_one = true;  // lazy: verify at most one target per lookup
      sim::Duration checkpoint = ctx.elapsed;
      resolve_ns_address(ns_name, now, ctx);
      ctx.elapsed = checkpoint;
      if (auto refreshed = cache_.peek(ns_name, dns::RRType::kA, now)) {
        hit = refreshed;
      }
    }
    if (hit) {
      for (const auto& addr_rdata : hit->rrset.rdatas()) {
        servers.push_back(ServerCandidate{
            ns_name, std::get<dns::ARdata>(addr_rdata).address});
      }
      continue;
    }
    unresolved.push_back(ns_name);
  }

  if (servers.empty()) {
    for (const auto& ns_name : unresolved) {
      if (std::find(ctx.fetching.begin(), ctx.fetching.end(), ns_name) !=
          ctx.fetching.end()) {
        continue;
      }
      if (auto addr = resolve_ns_address(ns_name, now, ctx)) {
        servers.push_back(ServerCandidate{ns_name, *addr});
        break;  // one reachable server is enough to proceed
      }
    }
  }

  rotate(servers, now);
  return !servers.empty();
}

double RecursiveResolver::selection_srtt_ms(net::Address address,
                                            sim::Time now) const {
  auto it = server_health_.find(address.value());
  if (it == server_health_.end()) {
    // Optimistic default for untried servers so that every server is
    // eventually probed (BIND's decaying-srtt has the same effect).
    return 10.0;
  }
  const ServerHealth& health = it->second;
  double srtt = health.srtt_ms;
  if (now < health.backoff_until) {
    // Benched by the backoff policy: a flat penalty far above any
    // plausible RTT pushes the server behind every healthy candidate
    // (it is still reachable as a last resort when everything is down).
    srtt += 10000.0;
  }
  return srtt;
}

void RecursiveResolver::record_exchange(net::Address address,
                                        sim::Duration elapsed, bool answered,
                                        sim::Time now) {
  ServerHealth& health = server_health_[address.value()];
  // Feed the smoothed-RTT estimator; timeouts count double (BIND's
  // penalty) so a flaky server drifts to the back of the order.
  double sample_ms = sim::to_milliseconds(elapsed) * (answered ? 1.0 : 2.0);
  if (!health.srtt_seeded) {
    health.srtt_ms = sample_ms;
    health.srtt_seeded = true;
  } else {
    health.srtt_ms = 0.7 * health.srtt_ms + 0.3 * sample_ms;
  }
  if (answered) {
    // One good exchange clears the slate entirely.
    health.consecutive_timeouts = 0;
    health.backoff_level = 0;
    health.backoff_until = sim::Time{};
    return;
  }
  if (++health.consecutive_timeouts >= kTimeoutsBeforeBackoff) {
    // Bench the server: kInitialBackoff doubled per repeat offense,
    // clamped to kMaxBackoff (level capped so the shift stays defined).
    sim::Duration bench =
        kInitialBackoff *
        (std::int64_t{1} << std::min(health.backoff_level, 16));
    health.backoff_until = now + std::min(bench, kMaxBackoff);
    if (health.backoff_level < 16) {
      ++health.backoff_level;
    }
    health.consecutive_timeouts = 0;
    ++stats_.backoffs;
  }
}

void RecursiveResolver::rotate(std::vector<ServerCandidate>& servers,
                               sim::Time now) {
  if (servers.size() <= 1) {
    return;
  }
  if (config_.srtt_selection) {
    auto srtt_of = [this, now](const ServerCandidate& server) {
      return selection_srtt_ms(server.address, now);
    };
    std::stable_sort(servers.begin(), servers.end(),
                     [&](const ServerCandidate& a, const ServerCandidate& b) {
                       return srtt_of(a) < srtt_of(b);
                     });
    // Rotate within the leading band of near-equal servers, preserving the
    // §3.4 observation that resolvers rotate across comparable servers.
    double best = srtt_of(servers.front());
    std::size_t band = 1;
    while (band < servers.size() &&
           srtt_of(servers[band]) <= best + kSrttBandMs) {
      ++band;
    }
    if (band > 1) {
      std::rotate(servers.begin(),
                  servers.begin() +
                      static_cast<long>(rotate_counter_++ % band),
                  servers.begin() + static_cast<long>(band));
    }
    return;
  }
  std::rotate(servers.begin(),
              servers.begin() +
                  static_cast<long>(rotate_counter_++ % servers.size()),
              servers.end());
}

std::optional<net::Address> RecursiveResolver::resolve_ns_address(
    const dns::Name& ns_name, sim::Time now, Context& ctx) {
  if (ctx.depth >= kMaxNsResolutionDepth) {
    return std::nullopt;
  }
  ctx.fetching.push_back(ns_name);
  ++ctx.depth;
  dns::Question question{ns_name, dns::RRType::kA, dns::RClass::kIN};
  dns::Message response = resolve_iterative(question, now, ctx);
  --ctx.depth;
  ctx.fetching.pop_back();
  if (response.flags.rcode != dns::Rcode::kNoError) {
    return std::nullopt;
  }
  for (const auto& rr : response.answers) {
    if (rr.type() == dns::RRType::kA) {
      return std::get<dns::ARdata>(rr.rdata).address;
    }
  }
  return std::nullopt;
}

dns::Message RecursiveResolver::resolve_iterative(
    const dns::Question& question, sim::Time now, Context& ctx) {
  dns::Question current = question;  // follows CNAME chains
  std::vector<dns::ResourceRecord> chain;  // CNAME prefix records
  dns::Name minimized_zone;  // zone the reveal counter applies to
  std::size_t reveal = 1;    // labels revealed past that zone (RFC 7816)
  std::vector<ServerCandidate> servers;

  for (int iteration = 0; iteration < kMaxIterations; ++iteration) {
    // A sub-question may be answerable from data cached moments ago.
    if (iteration > 0 || ctx.depth > 0) {
      if (auto cached = answer_from_cache(current, now + ctx.elapsed)) {
        chain.insert(chain.end(), cached->answers.begin(),
                     cached->answers.end());
        return positive_response(question, std::move(chain));
      }
    }

    const dns::Name zone = find_servers(current.qname, now, ctx, servers);
    if (servers.empty()) {
      return reply(question, dns::Rcode::kServFail);
    }

    // QNAME minimization (RFC 7816): expose only zone-depth + reveal
    // labels, asking NS until the final zone is reached.
    dns::Question wire = current;
    if (config_.qname_minimization) {
      if (zone != minimized_zone) {
        minimized_zone = zone;
        reveal = 1;
      }
      const std::size_t zone_depth = zone.label_count();
      if (current.qname.label_count() > zone_depth + reveal) {
        wire = dns::Question{current.qname.suffix(zone_depth + reveal),
                             dns::RRType::kNS, dns::RClass::kIN};
      }
    }
    const bool minimized =
        wire.qname != current.qname || wire.qtype != current.qtype;

    // Attempt k goes to candidate k mod n, so a single-server zone gets
    // plain retransmissions to its one address.  `continue` moves on to
    // the next attempt; `break` with progressed set takes the next
    // referral step.
    bool progressed = false;
    for (int attempt = 0; attempt < kMaxServerAttempts; ++attempt) {
      const ServerCandidate& server =
          servers[static_cast<std::size_t>(attempt) % servers.size()];
      dns::Message query = dns::Message::make_query(next_id_++, wire.qname,
                                                    wire.qtype, false);
      query.add_edns();  // modern resolvers advertise a large UDP payload
      auto outcome =
          network_.query(self_, server.address, query, now + ctx.elapsed);
      ctx.elapsed += outcome.elapsed;
      ++ctx.upstream_queries;
      ++stats_.upstream_queries;
      record_exchange(server.address, outcome.elapsed,
                      outcome.response.has_value(), now + ctx.elapsed);
      if (!outcome.response) {
        // Timeout: fall through to the next candidate (server
        // re-selection); the health record above may have benched this
        // one, in which case later rotate() calls route around it.
        continue;
      }
      dns::Message response = std::move(*outcome.response);
      if (response.flags.tc) {
        // Truncated over UDP: retry the same server over TCP (RFC 1035
        // §4.2.2), paying the handshake.
        auto tcp_outcome =
            network_.query(self_, server.address, query, now + ctx.elapsed,
                           net::Network::Transport::kTcp);
        ctx.elapsed += tcp_outcome.elapsed;
        ++ctx.upstream_queries;
        ++stats_.upstream_queries;
        ++stats_.tcp_retries;
        if (!tcp_outcome.response) {
          continue;
        }
        response = std::move(*tcp_outcome.response);
      }
      const sim::Time t = now + ctx.elapsed;

      if (response.flags.rcode != dns::Rcode::kNoError &&
          response.flags.rcode != dns::Rcode::kNXDomain) {
        continue;  // REFUSED/SERVFAIL from upstream: next server
      }

      auto cut = ingest_response(response, zone, t);

      if (config_.sticky && response.flags.aa) {
        sticky_pins_.emplace(zone, server);
      }

      if (response.flags.rcode == dns::Rcode::kNXDomain) {
        // For a minimized query this is still conclusive: a missing
        // ancestor means every name below it is missing too (RFC 8020).
        cache_negative(response, minimized ? wire : current, t);
        // The CNAME prefix stays visible.
        return reply(question, dns::Rcode::kNXDomain, std::move(chain));
      }

      if (minimized && response.flags.aa) {
        // The partial name exists (NS answer for a hosted child zone, or
        // NODATA for an empty non-terminal): reveal one more label.
        ++reveal;
        progressed = true;
        break;
      }

      if (!response.answers.empty()) {
        if (auto direct =
                response.answer_rrset(current.qname, current.qtype)) {
          if (config_.validate_dnssec && response.flags.aa &&
              !validate_answer(response, current, now, ctx)) {
            continue;  // bogus: try another server
          }
          // Include any same-response CNAME chain ahead of the match.
          chain.insert(chain.end(), response.answers.begin(),
                       response.answers.end());
          return positive_response(question, std::move(chain));
        }
        if (current.qtype != dns::RRType::kCNAME) {
          if (auto cname =
                  response.answer_rrset(current.qname, dns::RRType::kCNAME)) {
            // Follow the chain: collect every CNAME + look for the target.
            chain.insert(chain.end(), response.answers.begin(),
                         response.answers.end());
            dns::Name target =
                std::get<dns::CnameRdata>(cname->rdatas().front()).target;
            // The final answer may already be in this response.
            for (const auto& rr : response.answers) {
              if (rr.type() == current.qtype && rr.name == target) {
                return positive_response(question, std::move(chain));
              }
            }
            current.qname = target;
            progressed = true;
            break;
          }
        }
        continue;  // answers that do not match the question: lame
      }

      if (response.flags.aa) {
        // Authoritative NODATA.
        cache_negative(response, current, t);
        return positive_response(question, std::move(chain));
      }

      if (cut && cut->is_strict_subdomain_of(zone) &&
          current.qname.is_subdomain_of(*cut)) {
        if (config_.centricity == Centricity::kParentCentric) {
          if (auto answer = answer_from_referral(current, response)) {
            ++stats_.referral_answers;
            chain.insert(chain.end(), answer->answers.begin(),
                         answer->answers.end());
            return positive_response(question, std::move(chain));
          }
        }
        progressed = true;  // descend to the child zone
        break;
      }
      // Lame referral: try the next server.
    }
    if (!progressed) {
      return reply(question, dns::Rcode::kServFail);
    }
  }
  return reply(question, dns::Rcode::kServFail);
}

bool RecursiveResolver::validate_answer(const dns::Message& response,
                                        const dns::Question& question,
                                        sim::Time now, Context& ctx) {
  auto rrset = response.answer_rrset(question.qname, question.qtype);
  if (!rrset) {
    return true;
  }
  // Find the covering RRSIG in the same response.
  const dns::RrsigRdata* sig = nullptr;
  for (const auto& rr : response.answers) {
    if (rr.name == question.qname && rr.type() == dns::RRType::kRRSIG) {
      const auto& candidate = std::get<dns::RrsigRdata>(rr.rdata);
      if (candidate.type_covered == question.qtype) {
        sig = &candidate;
        break;
      }
    }
  }
  if (sig == nullptr) {
    return true;  // unsigned: insecure but accepted
  }
  ++stats_.validations;

  // The DNSKEY must come from the signer (child) zone — parent copies
  // cannot satisfy a validator, which is the §2 argument for
  // child-centric resolution.
  std::optional<cache::CacheHit> keys =
      cache_.peek(sig->signer, dns::RRType::kDNSKEY, now + ctx.elapsed);
  if (!keys && ctx.depth < kMaxNsResolutionDepth &&
      !(question.qname == sig->signer &&
        question.qtype == dns::RRType::kDNSKEY)) {
    ++ctx.depth;
    dns::Question key_question{sig->signer, dns::RRType::kDNSKEY,
                               dns::RClass::kIN};
    resolve_iterative(key_question, now, ctx);
    --ctx.depth;
    keys = cache_.peek(sig->signer, dns::RRType::kDNSKEY, now + ctx.elapsed);
  }
  if (!keys) {
    ++stats_.validation_failures;
    return false;  // signed data with unreachable keys: bogus
  }
  for (const auto& rdata : keys->rrset.rdatas()) {
    if (dns::verify_rrsig(*rrset, *sig, std::get<dns::DnskeyRdata>(rdata))) {
      return true;
    }
  }
  ++stats_.validation_failures;
  return false;
}

void RecursiveResolver::maybe_prefetch(const dns::Question& question,
                                       sim::Time now) {
  if (!config_.prefetch || prefetching_) {
    return;
  }
  auto hit = cache_.peek(question.qname, question.qtype, now);
  if (!hit || hit->original_ttl == dns::Ttl{}) {
    return;
  }
  if (static_cast<double>(hit->rrset.ttl().value()) >
      kPrefetchFraction *
          static_cast<double>(hit->original_ttl.value())) {
    return;
  }
  // Refresh off the client's critical path; the fresh answer replaces the
  // near-dead entry so the next client stays a cache hit.
  prefetching_ = true;
  Context ctx;
  resolve_iterative(question, now, ctx);
  prefetching_ = false;
  ++stats_.prefetches;
}

void RecursiveResolver::cache_negative(const dns::Message& response,
                                       const dns::Question& question,
                                       sim::Time now) {
  dns::Ttl ttl{60};  // conservative default when no SOA is present
  for (const auto& rr : response.authorities) {
    if (rr.type() == dns::RRType::kSOA) {
      const auto& soa = std::get<dns::SoaRdata>(rr.rdata);
      ttl = std::min(rr.ttl, soa.minimum.clamped());  // RFC 2308 §5
      break;
    }
  }
  cache_.insert_negative(question.qname, question.qtype,
                         response.flags.rcode, ttl, now);
}

}  // namespace dnsttl::resolver
