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

/// Server candidates one referral step holds without touching the heap;
/// a longer list spills to it.
constexpr std::size_t kInlineServers = 32;

/// NS names collect_addresses copies without touching the heap: a
/// root-sized set.
constexpr std::size_t kInlineNsNames = 13;

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

/// Calls @p fn with each RRset of @p records whose type passes @p wanted,
/// in canonical (owner, type) order.  Each record is copied once, into its
/// set; members keep their order of appearance, and each set follows
/// RFC 2181 §5.2 (minimum member TTL, no duplicate RDATA, mixed class
/// throws std::invalid_argument).
template <typename Wanted, typename Fn>
void group_rrsets(const std::vector<dns::ResourceRecord>& records,
                  Wanted&& wanted, Fn&& fn) {
  // Sort pointers, not records; sections that fit the inline array sort
  // without allocating.
  std::array<const dns::ResourceRecord*, 32> inline_order;
  std::vector<const dns::ResourceRecord*> heap_order;
  std::span<const dns::ResourceRecord*> order(inline_order);
  if (records.size() > order.size()) {
    heap_order.resize(records.size());
    order = heap_order;
  }
  std::size_t kept = 0;
  for (const auto& rr : records) {
    if (wanted(rr.type())) {
      order[kept++] = &rr;
    }
  }
  order = order.first(kept);
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

/// group_rrsets filter that keeps every record.
bool any_type(dns::RRType) { return true; }

/// Makes @p response a recursive resolver's reply to @p question: QR and
/// RA set, @p rcode, and the records already in its answer section.
void reply(dns::Message& response, const dns::Question& question,
           dns::Rcode rcode) {
  response.id = 0;
  response.flags = dns::HeaderFlags{};
  response.flags.qr = true;
  response.flags.ra = true;
  response.flags.rcode = rcode;
  response.questions.clear();
  response.questions.push_back(question);
  response.authorities.clear();
  response.additionals.clear();
}

/// reply() with an empty answer section.
void empty_reply(dns::Message& response, const dns::Question& question,
                 dns::Rcode rcode) {
  response.answers.clear();
  reply(response, question, rcode);
}

}  // namespace

RecursiveResolver::RecursiveResolver(std::string ident, ResolverConfig config,
                                     net::Network& network,
                                     const RootHints& hints)
    : ident_(std::move(ident)),
      config_(config),
      network_(network) {
  root_addresses_.reserve(hints.servers.size());
  for (const auto& entry : hints.servers) {
    root_addresses_.push_back(entry.address);
  }
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

std::optional<sim::Duration> RecursiveResolver::serve(
    const dns::Message& query, net::Address /*client*/, sim::Time now,
    dns::Message& reply) {
  if (query.questions.empty()) {
    reply.set_response(query);
    reply.flags.rcode = dns::Rcode::kFormErr;
    return sim::Duration{};
  }
  const ResolutionSummary result = resolve(query.question(), now, reply);
  reply.id = query.id;
  reply.flags.rd = query.flags.rd;
  return result.elapsed;
}

ResolutionSummary RecursiveResolver::resolve(const dns::Question& question,
                                             sim::Time now,
                                             dns::Message& response) {
  ++stats_.client_queries;
  ResolutionSummary result;

  // RFC 7706 local root mirror: answered before anything else, with full
  // (undecremented) TTLs and no wire traffic.
  if (answer_from_local_root(question, response)) {
    ++stats_.referral_answers;
    result.answered_from_referral = true;
    return result;
  }

  response.clear();
  if (answer_from_cache(question, now, response.answers)) {
    ++stats_.cache_answers;
    positive_response(question, response);
    maybe_prefetch(question, now);
    result.answered_from_cache = true;
    return result;
  }

  if (auto negative =
          cache_.lookup_negative(question.qname, question.qtype, now)) {
    ++stats_.cache_answers;
    reply(response, question, negative->rcode);
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
          stale->rrset().append_records(response.answers, stale->ttl);
          reply(response, question, dns::Rcode::kNoError);
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
  resolve_iterative(question, now, ctx, response);

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
      response.answers.clear();
      stale->rrset().append_records(response.answers, stale->ttl);
      reply(response, question, dns::Rcode::kNoError);
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
  result.elapsed = ctx.elapsed;
  result.upstream_queries = ctx.upstream_queries;
  return result;
}

bool RecursiveResolver::answer_from_local_root(const dns::Question& question,
                                               dns::Message& response) {
  if (!config_.local_root || !local_root_zone_) {
    return false;
  }
  response.clear();
  using Kind = dns::LookupResult::Kind;
  const Kind kind =
      local_root_zone_->lookup(question.qname, question.qtype, response);
  if (kind == Kind::kAnswer) {
    reply(response, question, dns::Rcode::kNoError);
    return true;
  }
  if (kind == Kind::kDelegation &&
      config_.centricity == Centricity::kParentCentric) {
    // Parent-centric + mirror: the referral content answers NS/address
    // questions about TLDs directly, always at the full parent TTL — the
    // "full 172800 s" VPs of §3.2.  A delegation has no answer records, so
    // the matches are the whole answer section.
    if (answer_from_referral(question, response, response.answers)) {
      positive_response(question, response);
      return true;
    }
  }
  return false;
}

bool RecursiveResolver::answer_from_cache(
    const dns::Question& question, sim::Time now,
    std::vector<dns::ResourceRecord>& answers) {
  const auto threshold = answer_threshold();
  const std::size_t first = answers.size();
  const auto none = [&answers, first] {
    answers.erase(answers.begin() + static_cast<long>(first), answers.end());
    return false;
  };
  // Borrowed from the question, then from cached CNAME sets: lookups move
  // no entry, so the target stays valid across the walk.
  const dns::Name* qname = &question.qname;

  for (int hop = 0; hop < 9; ++hop) {
    if (auto hit = cache_.lookup(*qname, question.qtype, now)) {
      if (static_cast<int>(hit->credibility) >= static_cast<int>(threshold)) {
        hit->rrset().append_records(answers, hit->ttl);
        return true;
      }
      return none();  // data cached but not credible enough to serve
    }
    if (question.qtype == dns::RRType::kCNAME) {
      return none();
    }
    auto cname = cache_.lookup(*qname, dns::RRType::kCNAME, now);
    if (!cname || static_cast<int>(cname->credibility) <
                      static_cast<int>(threshold)) {
      return none();
    }
    const dns::RRset& cname_set = cname->rrset();
    cname_set.append_records(answers, cname->ttl);
    qname = &std::get<dns::CnameRdata>(cname_set.rdatas().front()).target;
  }
  return none();
}

void RecursiveResolver::positive_response(const dns::Question& question,
                                          dns::Message& response) const {
  for (auto& rr : response.answers) {
    rr.ttl = std::clamp(rr.ttl, config_.min_ttl, config_.max_ttl);
  }
  reply(response, question, dns::Rcode::kNoError);
}

bool RecursiveResolver::answer_from_referral(
    const dns::Question& question, const dns::Message& referral,
    std::vector<dns::ResourceRecord>& answers) {
  const std::size_t first = answers.size();
  if (question.qtype == dns::RRType::kNS) {
    for (const auto& rr : referral.authorities) {
      if (rr.name == question.qname && rr.type() == dns::RRType::kNS) {
        answers.push_back(rr);
      }
    }
  } else if (is_address_type(question.qtype)) {
    for (const auto& rr : referral.additionals) {
      if (rr.name == question.qname && rr.type() == question.qtype) {
        answers.push_back(rr);
      }
    }
  }
  return answers.size() > first;
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
  // The SOA of negative answers is consumed by the caller.
  const auto ns_only = [](dns::RRType type) { return type == dns::RRType::kNS; };
  group_rrsets(response.authorities, ns_only, [&](dns::RRset rrset) {
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
  group_rrsets(response.answers, any_type, [&](dns::RRset rrset) {
    std::optional<dns::Name> link;
    if (is_address_type(rrset.type())) {
      link = linked_ns_owner_for(rrset.name(), now);
    }
    cache_.insert(std::move(rrset), answer_cred, now, std::move(link));
  });

  // Additional-section addresses: glue on referrals (sibling glue too:
  // still parent-sourced, linked to the cut's NS set), hints otherwise.
  group_rrsets(response.additionals, is_address_type, [&](dns::RRset rrset) {
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

dns::Name RecursiveResolver::find_servers(const dns::Name& qname,
                                          sim::Time now, Context& ctx,
                                          ServerList& servers,
                                          const dns::Name& floor) {
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
      net::MessageLease synthetic(network_);
      if (local_root_zone_->lookup(qname, dns::RRType::kNS, *synthetic) ==
          dns::LookupResult::Kind::kDelegation) {
        synthetic->flags.qr = true;
        auto cut = ingest_response(*synthetic, dns::Name{}, now);
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
  for (const net::Address address : root_addresses_) {
    servers.push_back(ServerCandidate{address});
  }
  rotate(servers, now);
  return dns::Name{};
}

bool RecursiveResolver::collect_addresses(const dns::RRset& ns,
                                          sim::Time now, Context& ctx,
                                          ServerList& servers) {
  // @p ns and every address hit are borrowed from the cache.  Sub-
  // resolutions re-enter the resolver, which inserts into the cache and so
  // ends every borrowed hit: before one, the NS names are copied into
  // `held` (on the stack for a set of up to kInlineNsNames), and the
  // addresses read so far are already candidates.
  alignas(dns::Name) std::array<std::byte, kInlineNsNames * sizeof(dns::Name)>
      held_bytes;
  std::pmr::monotonic_buffer_resource held_arena(held_bytes.data(),
                                                 held_bytes.size());
  std::pmr::vector<dns::Name> held(&held_arena);
  const auto hold = [&] {
    held.reserve(ns.size());
    for (const auto& rdata : ns.rdatas()) {
      held.push_back(std::get<dns::NsRdata>(rdata).nsdname);
    }
  };
  const auto name_at = [&](std::size_t i) -> const dns::Name& {
    return held.empty() ? std::get<dns::NsRdata>(ns.rdatas()[i]).nsdname
                        : held[i];
  };
  const auto add = [&servers](const dns::RRset& addresses) {
    for (const auto& rdata : addresses.rdatas()) {
      servers.push_back(ServerCandidate{std::get<dns::ARdata>(rdata).address});
    }
  };

  const std::size_t count = ns.size();
  bool verified_one = false;
  for (std::size_t i = 0; i < count; ++i) {
    auto hit = cache_.peek(name_at(i), dns::RRType::kA, now);
    if (!hit) {
      continue;
    }
    const std::size_t first = servers.size();
    add(hit->rrset());
    if (config_.fetch_authoritative_ns_addresses && ctx.depth == 0 &&
        !verified_one &&
        static_cast<int>(hit->credibility) <
            static_cast<int>(cache::Credibility::kNonAuthAnswer) &&
        !ctx.is_fetching(name_at(i))) {
      // Address known only via glue: verify it against the child zone
      // (Unbound-style target fetching).  The AA copy is cached linked to
      // its covering NS set, so in-bailiwick lifetimes stay tied (§4.2)
      // while the resolver becomes visible at the child's authoritatives as
      // periodic NS-address queries (§3.4).  The fetch runs off the
      // client's critical path (opportunistic revalidation): this query is
      // answered with the data at hand, the fetched addresses if the fetch
      // cached any, else the glue's.
      verified_one = true;  // lazy: verify at most one target per lookup
      hold();
      sim::Duration checkpoint = ctx.elapsed;
      resolve_ns_address(held[i], now, ctx);
      ctx.elapsed = checkpoint;
      if (auto fetched = cache_.peek(held[i], dns::RRType::kA, now)) {
        servers.resize(first);
        add(fetched->rrset());
      }
    }
  }

  // Every name with a cached address added at least one server, so an
  // empty list means no name had one: resolve them in order until one
  // does.  Nothing has been fetched yet, so `held` is still empty.
  if (servers.empty()) {
    hold();
    for (const dns::Name& ns_name : held) {
      if (ctx.is_fetching(ns_name)) {
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

std::size_t RecursiveResolver::HealthTable::slot_of(
    std::uint32_t address) const noexcept {
  // Fibonacci hashing: the multiply spreads sequential addresses and the
  // high half of the product picks the home slot.  The load cap leaves a
  // free slot to end every probe.
  const std::size_t mask = slots_.size() - 1;
  std::size_t i =
      static_cast<std::size_t>((address * 0x9e3779b97f4a7c15ULL) >> 32) & mask;
  while (slots_[i].used && slots_[i].address != address) {
    i = (i + 1) & mask;
  }
  return i;
}

const RecursiveResolver::ServerHealth* RecursiveResolver::HealthTable::find(
    net::Address address) const noexcept {
  if (slots_.empty()) {
    return nullptr;
  }
  const Slot& slot = slots_[slot_of(address.value())];
  return slot.used ? &slot.health : nullptr;
}

RecursiveResolver::ServerHealth& RecursiveResolver::HealthTable::get(
    net::Address address) {
  if (!slots_.empty()) {
    if (Slot& slot = slots_[slot_of(address.value())]; slot.used) {
      return slot.health;
    }
  }
  if (4 * (size_ + 1) > 3 * slots_.size()) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 8 : 2 * old.size(), Slot{});
    for (const Slot& slot : old) {
      if (slot.used) {
        slots_[slot_of(slot.address)] = slot;
      }
    }
  }
  Slot& slot = slots_[slot_of(address.value())];
  slot.address = address.value();
  slot.used = true;
  ++size_;
  return slot.health;
}

double RecursiveResolver::selection_srtt_ms(net::Address address,
                                            sim::Time now) const {
  const ServerHealth* found = server_health_.find(address);
  if (found == nullptr) {
    // Optimistic default for untried servers so that every server is
    // eventually probed (BIND's decaying-srtt has the same effect).
    return 10.0;
  }
  const ServerHealth& health = *found;
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
  ServerHealth& health = server_health_.get(address);
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
        (std::int64_t{1} << std::min<int>(health.backoff_level, 16));
    health.backoff_until = now + std::min(bench, kMaxBackoff);
    if (health.backoff_level < 16) {
      ++health.backoff_level;
    }
    health.consecutive_timeouts = 0;
    ++stats_.backoffs;
  }
}

void RecursiveResolver::rotate(ServerList& servers, sim::Time now) {
  if (servers.size() <= 1) {
    return;
  }
  if (config_.srtt_selection) {
    for (auto& server : servers) {
      server.srtt_ms = selection_srtt_ms(server.address, now);
    }
    // Stable insertion sort on srtt: a candidate moves only past strictly
    // slower ones, so this is std::stable_sort's permutation without its
    // scratch buffer (lists are a referral step's few servers).
    for (std::size_t i = 1; i < servers.size(); ++i) {
      const ServerCandidate moving = servers[i];
      std::size_t j = i;
      for (; j > 0 && moving.srtt_ms < servers[j - 1].srtt_ms; --j) {
        servers[j] = servers[j - 1];
      }
      servers[j] = moving;
    }
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
  ctx.fetching[ctx.fetching_count++] = &ns_name;
  ++ctx.depth;
  dns::Question question{ns_name, dns::RRType::kA, dns::RClass::kIN};
  net::MessageLease response(network_);
  resolve_iterative(question, now, ctx, *response);
  --ctx.depth;
  --ctx.fetching_count;
  if (response->flags.rcode != dns::Rcode::kNoError) {
    return std::nullopt;
  }
  for (const auto& rr : response->answers) {
    if (rr.type() == dns::RRType::kA) {
      return std::get<dns::ARdata>(rr.rdata).address;
    }
  }
  return std::nullopt;
}

void RecursiveResolver::resolve_iterative(const dns::Question& question,
                                          sim::Time now, Context& ctx,
                                          dns::Message& out) {
  out.clear();
  std::vector<dns::ResourceRecord>& chain = out.answers;  // CNAME prefix
  dns::Question current = question;  // follows CNAME chains
  dns::Name minimized_zone;  // zone the reveal counter applies to
  std::size_t reveal = 1;    // labels revealed past that zone (RFC 7816)
  alignas(ServerCandidate)
      std::array<std::byte, kInlineServers * sizeof(ServerCandidate)>
          arena_bytes;
  std::pmr::monotonic_buffer_resource arena(arena_bytes.data(),
                                            arena_bytes.size());
  ServerList servers(&arena);
  servers.reserve(kInlineServers);
  // One query and one reply message for every exchange of this loop.
  net::MessageLease query(network_);
  net::MessageLease response(network_);

  for (int iteration = 0; iteration < kMaxIterations; ++iteration) {
    // A sub-question may be answerable from data cached moments ago.
    if ((iteration > 0 || ctx.depth > 0) &&
        answer_from_cache(current, now + ctx.elapsed, chain)) {
      positive_response(question, out);
      return;
    }

    const dns::Name zone = find_servers(current.qname, now, ctx, servers);
    if (servers.empty()) {
      empty_reply(out, question, dns::Rcode::kServFail);
      return;
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
      const net::Address server =
          servers[static_cast<std::size_t>(attempt) % servers.size()].address;
      query->set_query(next_id_++, wire.qname, wire.qtype, false);
      query->add_edns();  // modern resolvers advertise a large UDP payload
      auto outcome = network_.exchange(self_, server, *query,
                                       now + ctx.elapsed, *response);
      ctx.elapsed += outcome.elapsed;
      ++ctx.upstream_queries;
      ++stats_.upstream_queries;
      record_exchange(server, outcome.elapsed, outcome.answered,
                      now + ctx.elapsed);
      if (!outcome.answered) {
        // Timeout: fall through to the next candidate (server
        // re-selection); the health record above may have benched this
        // one, in which case later rotate() calls route around it.
        continue;
      }
      if (response->flags.tc) {
        // Truncated over UDP: retry the same server over TCP (RFC 1035
        // §4.2.2), paying the handshake.
        auto tcp_outcome =
            network_.exchange(self_, server, *query, now + ctx.elapsed,
                              *response, net::Network::Transport::kTcp);
        ctx.elapsed += tcp_outcome.elapsed;
        ++ctx.upstream_queries;
        ++stats_.upstream_queries;
        ++stats_.tcp_retries;
        if (!tcp_outcome.answered) {
          continue;
        }
      }
      const sim::Time t = now + ctx.elapsed;
      dns::Message& received = *response;

      if (received.flags.rcode != dns::Rcode::kNoError &&
          received.flags.rcode != dns::Rcode::kNXDomain) {
        continue;  // REFUSED/SERVFAIL from upstream: next server
      }

      auto cut = ingest_response(received, zone, t);

      if (config_.sticky && received.flags.aa) {
        sticky_pins_.try_emplace(zone, server);
      }

      if (received.flags.rcode == dns::Rcode::kNXDomain) {
        // For a minimized query this is still conclusive: a missing
        // ancestor means every name below it is missing too (RFC 8020).
        cache_negative(received, minimized ? wire : current, t);
        // The CNAME prefix stays visible.
        reply(out, question, dns::Rcode::kNXDomain);
        return;
      }

      if (minimized && received.flags.aa) {
        // The partial name exists (NS answer for a hosted child zone, or
        // NODATA for an empty non-terminal): reveal one more label.
        ++reveal;
        progressed = true;
        break;
      }

      if (!received.answers.empty()) {
        if (received.first_answer(current.qname, current.qtype) != nullptr) {
          if (config_.validate_dnssec && received.flags.aa &&
              !validate_answer(received, current, now, ctx)) {
            continue;  // bogus: try another server
          }
          // Include any same-response CNAME chain ahead of the match.
          chain.insert(chain.end(),
                       std::make_move_iterator(received.answers.begin()),
                       std::make_move_iterator(received.answers.end()));
          positive_response(question, out);
          return;
        }
        if (current.qtype != dns::RRType::kCNAME) {
          if (const auto* cname = received.first_answer(
                  current.qname, dns::RRType::kCNAME)) {
            // Follow the chain: collect every CNAME + look for the target.
            chain.insert(chain.end(), received.answers.begin(),
                         received.answers.end());
            const dns::Name& target =
                std::get<dns::CnameRdata>(cname->rdata).target;
            // The final answer may already be in this response.
            if (received.first_answer(target, current.qtype) != nullptr) {
              positive_response(question, out);
              return;
            }
            current.qname = target;
            progressed = true;
            break;
          }
        }
        continue;  // answers that do not match the question: lame
      }

      if (received.flags.aa) {
        // Authoritative NODATA.
        cache_negative(received, current, t);
        positive_response(question, out);
        return;
      }

      if (cut && cut->is_strict_subdomain_of(zone) &&
          current.qname.is_subdomain_of(*cut)) {
        if (config_.centricity == Centricity::kParentCentric &&
            answer_from_referral(current, received, chain)) {
          ++stats_.referral_answers;
          positive_response(question, out);
          return;
        }
        progressed = true;  // descend to the child zone
        break;
      }
      // Lame referral: try the next server.
    }
    if (!progressed) {
      empty_reply(out, question, dns::Rcode::kServFail);
      return;
    }
  }
  empty_reply(out, question, dns::Rcode::kServFail);
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
      const dns::RrsigRdata& candidate =
          *std::get<dns::Shared<dns::RrsigRdata>>(rr.rdata);
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
    net::MessageLease discarded(network_);
    resolve_iterative(key_question, now, ctx, *discarded);
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
  net::MessageLease discarded(network_);
  resolve_iterative(question, now, ctx, *discarded);
  prefetching_ = false;
  ++stats_.prefetches;
}

void RecursiveResolver::cache_negative(const dns::Message& response,
                                       const dns::Question& question,
                                       sim::Time now) {
  dns::Ttl ttl{60};  // conservative default when no SOA is present
  for (const auto& rr : response.authorities) {
    if (rr.type() == dns::RRType::kSOA) {
      const dns::SoaRdata& soa =
          *std::get<dns::Shared<dns::SoaRdata>>(rr.rdata);
      ttl = std::min(rr.ttl, soa.minimum.clamped());  // RFC 2308 §5
      break;
    }
  }
  cache_.insert_negative(question.qname, question.qtype,
                         response.flags.rcode, ttl, now);
}

}  // namespace dnsttl::resolver
