#include "resolver/recursive_resolver.h"

#include "dns/dnssec.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <span>
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

bool is_address_type(dns::RRType type) {
  return type == dns::RRType::kA || type == dns::RRType::kAAAA;
}

/// Canonical (owner, type) order, ties broken by position: the records
/// of one section sit in one array, so address order is appearance order.
bool canonical_before(const dns::ResourceRecord* a,
                      const dns::ResourceRecord* b) {
  if (auto cmp = a->name <=> b->name; cmp != 0) {
    return cmp < 0;
  }
  if (a->type() != b->type()) {
    return a->type() < b->type();
  }
  return a < b;
}

/// Calls @p fn with each RRset of @p records, in canonical (owner, type)
/// order.  Each record is copied once, into its set; members keep their
/// order of appearance, and each set follows RFC 2181 §5.2 (minimum member
/// TTL, no duplicate RDATA, mixed class throws std::invalid_argument).
template <typename Fn>
void group_rrsets(const std::vector<dns::ResourceRecord>& records, Fn&& fn) {
  // Sort pointers, not records; sections that fit the inline array sort
  // without allocating.
  std::array<const dns::ResourceRecord*, 32> inline_order;
  std::vector<const dns::ResourceRecord*> heap_order;
  std::span<const dns::ResourceRecord*> order(inline_order);
  if (records.size() > order.size()) {
    heap_order.resize(records.size());
    order = heap_order;
  }
  order = order.first(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    order[i] = &records[i];
  }
  std::sort(order.begin(), order.end(), canonical_before);

  for (auto first = order.begin(); first != order.end();) {
    const dns::ResourceRecord& head = **first;
    const auto last = std::find_if(first, order.end(), [&head](const auto* rr) {
      return rr->name != head.name || rr->type() != head.type();
    });
    dns::RRset set(head.name, head.rclass, head.ttl);
    set.reserve(static_cast<std::size_t>(last - first));
    for (auto it = first; it != last; ++it) {
      set.add_record(**it);
    }
    fn(std::move(set));
    first = last;
  }
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
          std::vector<dns::ResourceRecord> records;
          stale->rrset().append_records(records, stale->ttl);
          result.response =
              reply(question, dns::Rcode::kNoError, std::move(records));
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
      std::vector<dns::ResourceRecord> records;
      stale->rrset().append_records(records, stale->ttl);
      result.response =
          reply(question, dns::Rcode::kNoError, std::move(records));
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
    // A successful resolution supersedes any stale-refresh suppression
    // (only serve-stale ever arms one).
    if (!stale_refresh_until_.empty()) {
      stale_refresh_until_.erase({question.qname, question.qtype});
    }
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
  // Borrowed from the question, then from cached CNAME sets: lookups move
  // no entry, so the target stays valid across the walk.
  const dns::Name* qname = &question.qname;

  for (int hop = 0; hop < 9; ++hop) {
    if (auto hit = cache_.lookup(*qname, question.qtype, now)) {
      if (static_cast<int>(hit->credibility) >= static_cast<int>(threshold)) {
        hit->rrset().append_records(chain, hit->ttl);
        return positive_response(question, std::move(chain));
      }
      return std::nullopt;  // data cached but not credible enough to serve
    }
    if (question.qtype == dns::RRType::kCNAME) {
      return std::nullopt;
    }
    auto cname = cache_.lookup(*qname, dns::RRType::kCNAME, now);
    if (!cname || static_cast<int>(cname->credibility) <
                      static_cast<int>(threshold)) {
      return std::nullopt;
    }
    const dns::RRset& cname_set = cname->rrset();
    cname_set.append_records(chain, cname->ttl);
    qname = &std::get<dns::CnameRdata>(cname_set.rdatas().front()).target;
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

  // Each section's sets go in canonical (owner, type) order.  The order is
  // observable: it fixes recency ticks, which sibling NS owner becomes the
  // cut, and whether an answer address links to an NS set that arrives in
  // the same answer (the set must be cached first).
  //
  // Which NS owners does this response establish?  Used for glue linkage.
  std::optional<dns::Name> cut;
  group_rrsets(response.authorities, [&](dns::RRset rrset) {
    if (rrset.type() != dns::RRType::kNS) {
      return;  // SOA of negative answers is consumed by the caller
    }
    if (!referral) {
      cache_.insert(std::move(rrset), cache::Credibility::kNonAuthAnswer, now);
      return;
    }
    if (!rrset.name().is_strict_subdomain_of(zone)) {
      return;  // upward/lame referral: ignore
    }
    if (!cut || rrset.name().is_strict_subdomain_of(*cut)) {
      cut = rrset.name();
    }
    cache_.insert(std::move(rrset), cache::Credibility::kGlue, now);
  });

  // Answer-section data.
  const auto answer_cred = response.flags.aa
                               ? cache::Credibility::kAuthAnswer
                               : cache::Credibility::kNonAuthAnswer;
  group_rrsets(response.answers, [&](dns::RRset rrset) {
    std::optional<dns::Name> link;
    if (is_address_type(rrset.type())) {
      link = linked_ns_owner_for(rrset.name(), now);
    }
    cache_.insert(std::move(rrset), answer_cred, now, std::move(link));
  });

  // Additional-section addresses: glue on referrals (sibling glue too:
  // still parent-sourced, linked to the cut's NS set), hints otherwise.
  group_rrsets(response.additionals, [&](dns::RRset rrset) {
    if (!is_address_type(rrset.type())) {
      return;
    }
    if (referral && cut) {
      cache_.insert(std::move(rrset), cache::Credibility::kGlue, now, *cut);
      return;
    }
    std::optional<dns::Name> link = linked_ns_owner_for(rrset.name(), now);
    cache_.insert(std::move(rrset), cache::Credibility::kAdditional, now,
                  std::move(link));
  });
  return referral ? cut : std::nullopt;
}

std::optional<dns::Name> RecursiveResolver::linked_ns_owner_for(
    const dns::Name& owner, sim::Time now) {
  if (!config_.link_glue_to_ns) {
    return std::nullopt;
  }
  // An address record is delegation infrastructure when its owner appears
  // as an NS target of an ancestor zone; in that case its cache lifetime is
  // tied to that NS RRset (the paper's §4.2 in-bailiwick linkage).  The
  // walk probes each ancestor, nearest first, as a view of @p owner's
  // labels (the root is its own parent).
  for (std::size_t labels = owner.label_count() - (owner.is_root() ? 0 : 1);;
       --labels) {
    const dns::NameView zone = owner.suffix_view(labels);
    if (auto ns = cache_.peek(zone, dns::RRType::kNS, now)) {
      for (const auto& rdata : ns->rrset().rdatas()) {
        if (std::get<dns::NsRdata>(rdata).nsdname == owner) {
          return dns::Name(zone);
        }
      }
    }
    if (labels == 0) {
      return std::nullopt;
    }
  }
}

dns::Name RecursiveResolver::find_servers(
    const dns::Name& qname, sim::Time now, Context& ctx,
    std::vector<ServerCandidate>& servers, const dns::Name& floor) {
  servers.clear();

  // Each zone is a view of @p qname's trailing labels, qname first; a Name
  // is built only for the zone returned (and for sticky-pin lookups).
  for (std::size_t labels = qname.label_count();; --labels) {
    const dns::NameView zone = qname.suffix_view(labels);
    // Sticky resolvers reuse the first server that ever answered
    // authoritatively for a zone (§4.4).  The pin is consulted at the same
    // depth as the cache walk, so referral progress to deeper zones still
    // happens during bootstrap, but once a zone is pinned its server is
    // used forever, TTLs notwithstanding.
    if (config_.sticky) {
      dns::Name pinned(zone);
      if (auto it = sticky_pins_.find(pinned); it != sticky_pins_.end()) {
        servers.push_back(ServerCandidate{it->second});
        return pinned;
      }
    }
    // RFC 7706: the mirror supplies root-zone delegations locally.
    if (labels == 0 && config_.local_root && local_root_zone_) {
      auto result = local_root_zone_->lookup(qname, dns::RRType::kNS);
      if (result.kind == dns::LookupResult::Kind::kDelegation) {
        dns::Message synthetic;
        synthetic.flags.qr = true;
        synthetic.authorities = std::move(result.authorities);
        synthetic.additionals = std::move(result.additionals);
        auto cut = ingest_response(synthetic, dns::Name{}, now);
        if (cut) {
          // Re-walk down to the TLD cut now that its delegation is cached.
          return find_servers(qname, now, ctx, servers, *cut);
        }
      }
    }

    if (auto ns = cache_.peek(zone, dns::RRType::kNS, now)) {
      if (collect_addresses(ns->rrset(), now, ctx, servers)) {
        return dns::Name(zone);
      }
    }
    if (floor == zone || labels == 0) {
      break;
    }
  }

  // Fall back to the compiled-in root hints.
  for (const auto& entry : hints_.servers) {
    servers.push_back(ServerCandidate{entry.address});
  }
  rotate(servers, now);
  return dns::Name{};
}

bool RecursiveResolver::collect_addresses(
    const dns::RRset& ns, sim::Time now, Context& ctx,
    std::vector<ServerCandidate>& servers) {
  // @p ns and every address hit are borrowed from the cache.  Only the
  // glue verification below re-enters the resolver, which inserts into the
  // cache and so ends every borrowed hit: on that path the loop first
  // copies what it reads afterwards.
  std::optional<dns::RRset> ns_copy;
  const dns::RRset* ns_set = &ns;
  std::vector<dns::Name> unresolved;
  bool verified_one = false;
  for (std::size_t i = 0; i < ns_set->size(); ++i) {
    const dns::Name* ns_name =
        &std::get<dns::NsRdata>(ns_set->rdatas()[i]).nsdname;
    auto hit = cache_.peek(*ns_name, dns::RRType::kA, now);
    std::optional<dns::RRset> glue;  // the hit's set, kept across the fetch
    if (hit && config_.fetch_authoritative_ns_addresses &&
        ctx.depth == 0 && !verified_one &&
        static_cast<int>(hit->credibility) <
            static_cast<int>(cache::Credibility::kNonAuthAnswer) &&
        std::find(ctx.fetching.begin(), ctx.fetching.end(), *ns_name) ==
            ctx.fetching.end()) {
      // Address known only via glue: verify it against the child zone
      // (Unbound-style target fetching).  The AA copy is cached linked to
      // its covering NS set, so in-bailiwick lifetimes stay tied (§4.2)
      // while the resolver becomes visible at the child's authoritatives as
      // periodic NS-address queries (§3.4).  The fetch runs off the
      // client's critical path (opportunistic revalidation): this query is
      // answered with the data at hand.
      verified_one = true;  // lazy: verify at most one target per lookup
      ns_copy = *ns_set;
      ns_set = &*ns_copy;
      ns_name = &std::get<dns::NsRdata>(ns_set->rdatas()[i]).nsdname;
      glue = hit->rrset();
      sim::Duration checkpoint = ctx.elapsed;
      resolve_ns_address(*ns_name, now, ctx);
      ctx.elapsed = checkpoint;
      hit = cache_.peek(*ns_name, dns::RRType::kA, now);
    }
    const dns::RRset* addresses = hit ? &hit->rrset() : glue ? &*glue : nullptr;
    if (addresses != nullptr) {
      for (const auto& addr_rdata : addresses->rdatas()) {
        servers.push_back(
            ServerCandidate{std::get<dns::ARdata>(addr_rdata).address});
      }
      continue;
    }
    unresolved.push_back(*ns_name);
  }

  if (servers.empty()) {
    for (const auto& ns_name : unresolved) {
      if (std::find(ctx.fetching.begin(), ctx.fetching.end(), ns_name) !=
          ctx.fetching.end()) {
        continue;
      }
      if (auto addr = resolve_ns_address(ns_name, now, ctx)) {
        servers.push_back(ServerCandidate{*addr});
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
    for (auto& server : servers) {
      server.srtt_ms = selection_srtt_ms(server.address, now);
    }
    std::stable_sort(servers.begin(), servers.end(),
                     [](const ServerCandidate& a, const ServerCandidate& b) {
                       return a.srtt_ms < b.srtt_ms;
                     });
    // Rotate within the leading band of near-equal servers, preserving the
    // §3.4 observation that resolvers rotate across comparable servers.
    const double best = servers.front().srtt_ms;
    std::size_t band = 1;
    while (band < servers.size() &&
           servers[band].srtt_ms <= best + kSrttBandMs) {
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
        sticky_pins_.try_emplace(zone, server.address);
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
        if (response.first_answer(current.qname, current.qtype) != nullptr) {
          if (config_.validate_dnssec && response.flags.aa &&
              !validate_answer(response, current, now, ctx)) {
            continue;  // bogus: try another server
          }
          // Include any same-response CNAME chain ahead of the match.
          chain.insert(chain.end(),
                       std::make_move_iterator(response.answers.begin()),
                       std::make_move_iterator(response.answers.end()));
          return positive_response(question, std::move(chain));
        }
        if (current.qtype != dns::RRType::kCNAME) {
          if (const auto* cname = response.first_answer(
                  current.qname, dns::RRType::kCNAME)) {
            // Follow the chain: collect every CNAME + look for the target.
            chain.insert(chain.end(), response.answers.begin(),
                         response.answers.end());
            const dns::Name& target =
                std::get<dns::CnameRdata>(cname->rdata).target;
            // The final answer may already be in this response.
            if (response.first_answer(target, current.qtype) != nullptr) {
              return positive_response(question, std::move(chain));
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
  // child-centric resolution.  The hit is borrowed: the sub-resolution
  // below inserts into the cache, but runs only when there is no hit.
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
  for (const auto& rdata : keys->rrset().rdatas()) {
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
  if (static_cast<double>(hit->ttl.value()) >
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
