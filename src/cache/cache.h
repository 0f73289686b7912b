#ifndef DNSTTL_CACHE_CACHE_H
#define DNSTTL_CACHE_CACHE_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "check/audit.h"
#include "dns/name.h"
#include "dns/name_table.h"
#include "dns/rr.h"
#include "dns/types.h"
#include "sim/time.h"

namespace dnsttl::cache {

/// RFC 2181 §5.4.1 data ranking.  Higher values are more credible; a cache
/// must not replace more-credible data with less-credible data, and
/// parent-side glue (ranked low) must not override child authoritative
/// answers (ranked top).  Which rank *wins in practice* for TTL purposes is
/// exactly the parent/child-centricity question of the paper's §3.
enum class Credibility : std::uint8_t {
  kAdditional = 1,    ///< additional section of a non-authoritative response
  kGlue = 2,          ///< referral authority/glue from the parent
  kNonAuthAnswer = 3, ///< answer section, AA not set
  kAuthAnswer = 4,    ///< answer section with AA set (child zone data)
};

std::string_view to_string(Credibility credibility);

/// Victim-selection rule for capacity-bounded caches (max_entries > 0).
/// All three are fully deterministic: every touch (insert, hit, stale
/// serve, negative hit) draws a unique value from a per-cache logical
/// clock, so there are never ties to break arbitrarily.
enum class EvictionPolicy : std::uint8_t {
  kLru = 0,       ///< least recently touched entry goes first
  kLfu = 1,       ///< lowest (frequency, recency); 8-bit saturating counters
                  ///< with periodic halving so old popularity decays
  kTtlAware = 2,  ///< soonest-to-expire entry goes first (expiry heaps)
};

std::string_view to_string(EvictionPolicy policy);

/// Thrown by Cache::restore() on malformed, truncated or corrupt snapshot
/// input.  Mirrors dns::WireError: hostile bytes are a documented rejection,
/// never UB.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Cache;

/// What a cache lookup returns on a hit.  The RRset is borrowed from the
/// cache entry, not copied: it stays valid until the next call that inserts
/// or removes entries (insert, insert_negative, evict, purge_expired, clear,
/// restore).  lookup()'s recency updates move nothing, so hits survive
/// them.  Under DNSTTL_AUDIT, reading the RRset of a hit taken before such
/// a call throws check::AuditError.
class CacheHit {
 public:
  /// The stored RRset.  Its TTL field is the clamped TTL it was stored
  /// with; the remaining TTL is `ttl`.
  const dns::RRset& rrset() const;

  dns::Ttl ttl{};             ///< remaining seconds at lookup (30 if stale)
  Credibility credibility = Credibility::kGlue;
  bool stale = false;         ///< served past expiry (serve-stale mode)
  dns::Ttl original_ttl{};  ///< TTL as received, before counting down
  /// How far past expiry the entry is (zero for live hits).  Bounded by
  /// the configured stale window — RFC 8767's max-stale clamp.
  sim::Duration stale_for{};

 private:
  friend class Cache;
  const dns::RRset* rrset_ = nullptr;
  /// DNSTTL_AUDIT only: the cache and its mutation count when taken.
  const Cache* cache_ = nullptr;
  std::uint64_t taken_at_ = 0;
};

/// A cached negative result (RFC 2308).
struct NegativeHit {
  dns::Rcode rcode = dns::Rcode::kNXDomain;
  dns::Ttl remaining{};
};

/// TTL-driven DNS cache with credibility ranks, TTL clamping, optional
/// NS-linked glue expiry, optional serve-stale, optional capacity bounds
/// with pluggable eviction, and deterministic snapshot/restore.
///
/// The index is dns::NameTable, keyed on the Name's cached 64-bit hash
/// mixed with the record type — a probe is a couple of integer compares
/// plus one flat-buffer memcmp.  Each entry holds its owner once: a
/// positive entry in its RRset, a negative one beside its rcode.  A glue
/// entry's NS link is a 32-bit id into a per-cache table that holds each
/// linked NS owner once, counted by the entries linking to it.  Expiry is
/// tracked lazily in min-heaps of name-free (deadline, stamp, key hash)
/// records, so purge_expired() costs O(expired · log n) instead of a full
/// O(entries) sweep; a record finds its entry by probing its key hash for
/// its stamp.
///
/// Capacity: when config.max_entries > 0 the positive and negative tables
/// share one budget; any insert that pushes the combined population over
/// the limit evicts victims chosen by config.policy until it fits.  An
/// intrusive doubly-linked recency chain threaded through the table slots
/// makes the LRU victim O(1); the LFU walk starts at the cold end of that
/// chain and stops at the first frequency-1 entry, so on skewed workloads
/// it is near-O(1) too; TTL-aware victims come straight off the expiry
/// heaps.  The touch sequence a mutation performs is: bump the logical
/// clock, stamp the entry, move it to the chain head, apply the periodic
/// LFU halving, then enforce capacity — the differential oracle in
/// tests/cache_model_test.cc mirrors exactly this order.
///
/// The `link_glue_to_ns` knob reproduces the paper's §4.2 finding: for
/// in-bailiwick servers most resolvers tie the glue A record's lifetime to
/// the NS record and re-fetch both when the NS expires, even if the A's own
/// TTL has time left.
class Cache {
 public:
  struct Config {
    dns::Ttl max_ttl = dns::kTtl1Week;  ///< BIND default max-cache-ttl
    dns::Ttl min_ttl{};
    bool link_glue_to_ns = true;
    bool serve_stale = false;
    sim::Duration stale_window = 3 * sim::kDay;  ///< how long stale data lives
    /// When false, a live entry is kept even if equally-credible fresh data
    /// arrives (the "trust your cache to its TTL" style some resolvers show
    /// in §4.2: they keep a still-valid glue A past an NS refresh).
    bool replace_same_credibility = true;
    /// Parent-centric mode (§3): a live glue/referral entry is *not*
    /// overridden by child authoritative data; the parent's copy rules
    /// until it expires.
    bool prefer_parent_delegation = false;
    /// Combined positive+negative capacity; 0 = unbounded (the historical
    /// behavior — no eviction, no recency bookkeeping observable).
    std::size_t max_entries = 0;
    EvictionPolicy policy = EvictionPolicy::kLru;
    /// Every this-many clock ticks the LFU counters decay to max(1, f/2),
    /// so ancient popularity cannot pin an entry forever.  0 disables
    /// halving.  Only consulted when policy == kLfu.
    std::uint64_t lfu_halving_period = 1024;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /// Misses that found an expired entry.  An entry purge_expired()
    /// dropped is gone, so a later lookup of its key counts as a plain
    /// miss, here and in ns_linked_drops alike.
    std::uint64_t expired = 0;
    std::uint64_t ns_linked_drops = 0;  ///< glue dropped due to expired NS
    // lint:allow(raw-time-param) event counter, not a time quantity
    std::uint64_t stale_serves = 0;
    /// RFC 8767 resurrections: an expired entry still inside its stale
    /// window replaced by fresh upstream data (the record "came back").
    std::uint64_t resurrections = 0;
    std::uint64_t inserts = 0;
    std::uint64_t downgrades_refused = 0;  ///< less-credible insert ignored
    /// Capacity-eviction accounting (max_entries > 0 only).
    std::uint64_t capacity_evictions = 0;  ///< total victims, either table
    std::uint64_t evicted_positive = 0;
    std::uint64_t evicted_negative = 0;
    /// Peak combined population observed at rest (after any eviction), so
    /// bounded caches report at most max_entries.
    std::uint64_t high_water = 0;
  };

  Cache() = default;
  explicit Cache(Config config) : config_(config) {}

  /// Inserts @p rrset observed at @p now with the given credibility; the
  /// set moves into the entry.  If @p linked_ns_owner is set, the entry is
  /// glue whose usability is tied to the liveness of that NS RRset (when
  /// config.link_glue_to_ns).  Returns true if stored, false if refused by
  /// the credibility rule.
  bool insert(dns::RRset rrset, Credibility credibility, sim::Time now,
              std::optional<dns::Name> linked_ns_owner = std::nullopt);

  /// Caches a negative answer for (name, type) with TTL @p ttl.
  void insert_negative(const dns::Name& name, dns::RRType type,
                       dns::Rcode rcode, dns::Ttl ttl, sim::Time now);

  /// Looks up (name, type); counts down TTL; honours NS-glue links and
  /// serve-stale.  @p allow_stale lets the caller enable stale answers for
  /// this lookup only (resolvers serve stale only when upstream fails).
  std::optional<CacheHit> lookup(const dns::Name& name, dns::RRType type,
                                 sim::Time now, bool allow_stale = false);

  /// Peeks without touching statistics or recency state.  The NameView
  /// overload lets a caller probe every ancestor of a name without
  /// building one.
  std::optional<CacheHit> peek(const dns::Name& name, dns::RRType type,
                               sim::Time now) const {
    return peek(name.view(), type, now);
  }
  std::optional<CacheHit> peek(dns::NameView name, dns::RRType type,
                               sim::Time now) const;

  std::optional<NegativeHit> lookup_negative(const dns::Name& name,
                                             dns::RRType type, sim::Time now);

  /// Drops the (name, type) entry; returns true if present.
  bool evict(const dns::Name& name, dns::RRType type);

  /// Removes entries that expired before @p now (and past any stale window).
  /// In an unbounded cache whose later calls all run at @p now or after,
  /// no later lookup, peek, lookup_negative or insert result changes; only
  /// the expired, ns_linked_drops and high_water counters do
  /// (docs/architecture.md §Bounded cache).
  std::size_t purge_expired(sim::Time now);

  /// Drops every entry but keeps the tables' and expiry heaps' buffers, so
  /// a flushed cache refilled to a similar size allocates nothing.
  void clear();
  std::size_t size() const noexcept { return entries_.size(); }
  std::size_t negative_size() const noexcept { return negatives_.size(); }
  const Stats& stats() const noexcept { return stats_; }
  const Config& config() const noexcept { return config_; }
  /// The logical touch clock (test hook; every insert/hit advances it).
  std::uint64_t tick() const noexcept { return tick_; }
  /// Distinct NS owners that stored entries link to (test hook).
  std::size_t linked_ns_owners() const noexcept { return ns_links_.size(); }

  /// Remaining TTL of an entry in whole seconds, or nullopt (test hook).
  std::optional<dns::Ttl> remaining_ttl(const dns::Name& name,
                                        dns::RRType type,
                                        sim::Time now) const;

  /// Human-readable dump of every live entry ("rndc dumpdb" style):
  /// one line per record with remaining TTL, credibility and link state.
  /// Ordering matches the historical std::map layout: canonical name order,
  /// then type.
  std::string dump(sim::Time now) const;

  /// Serializes the complete cache state — config, both tables, recency
  /// order, frequency counters, expiry deadlines and the logical clock —
  /// into a versioned, length-prefixed little-endian image ending in an
  /// FNV-1a checksum.  Canonical: equal states produce equal bytes, and
  /// snapshot(restore(image)) == image for every accepted image.  Runtime
  /// stats are deliberately excluded (they describe behavior, not state).
  std::vector<std::uint8_t> snapshot() const;

  /// Rebuilds the cache from @p image, replacing all current state and
  /// resetting stats.  Input is fully validated — magic, version, checksum,
  /// counts, canonical record/name encodings, TTL clamps, expiry
  /// arithmetic, recency ordering, stamps unique per table, capacity
  /// bound — and corrupt input throws SnapshotError leaving the cache
  /// unchanged.
  void restore(std::span<const std::uint8_t> image);

  /// Deep structural audit: probe-chain/tombstone agreement and live-entry
  /// accounting in both index tables, recency-chain <-> slot consistency
  /// and strict touch-order monotonicity, frequency-counter invariants,
  /// per-entry TTL-clamp and expiry arithmetic, stored-Name integrity,
  /// expiry-heap order, stamps unique within each table, a heap record
  /// with each indexed entry's (key hash, expiry, stamp), NS-link ids and
  /// their counts (the link table holds exactly the owners that entries
  /// link), and the capacity bound.
  /// Deliberately time-free: the resolver legitimately inserts on shifted
  /// virtual clocks during sub-resolutions, so mutation monotonicity is not
  /// a cache invariant (the purge deadline guarantee is asserted at the
  /// purge_expired boundary instead).  Throws check::AuditError on
  /// violation.  Compiled in every build; invoked automatically at mutation
  /// boundaries only when built with DNSTTL_AUDIT=ON.
  void validate() const;

 private:
  /// Sentinel slot index ("no slot" / chain end).
  static constexpr std::size_t kNil = dns::kNoSlot;
  /// Sentinel NS-link id: the entry links to no NS owner.
  static constexpr std::uint32_t kNoLink =
      std::numeric_limits<std::uint32_t>::max();

  /// The NS owners that glue entries link to, each held once with a count
  /// of the entries holding its id.  An id is an index into the owner
  /// array and stays fixed while any entry holds it; the next owner added
  /// reuses a released id.  acquire() scans the array, which stays short:
  /// at seed 1 no cache in the bench binaries, examples or perfbench
  /// workloads links more than four owners at once (bailiwick and
  /// renumber peak at 4, Fig 2 at 3, passive and centricity at 1).
  class NsLinks {
   public:
    /// The id of @p owner, counting one more entry (added if absent).
    std::uint32_t acquire(const dns::Name& owner);
    /// Counts one entry less for @p id (kNoLink: no-op); an owner no entry
    /// links is dropped.
    void release(std::uint32_t id);
    const dns::Name& owner(std::uint32_t id) const { return owners_[id].name; }
    /// Owners some entry links.
    std::size_t size() const noexcept;
    /// Drops every owner but keeps the buffer, so a flushed cache re-links
    /// without allocating.
    void clear() noexcept { owners_.clear(); }
    /// Audits the table against @p ids, the link id of every linked entry
    /// in ascending order: each id names a live owner counting exactly its
    /// run of entries, no live owner is unlinked, and no two live owners
    /// share a name.  Allocates nothing.
    void validate(std::span<const std::uint64_t> ids) const;

   private:
    struct Owner {
      dns::Name name;
      std::uint32_t refs = 0;  ///< entries linking here; 0 = free
    };
    std::vector<Owner> owners_;  ///< by id
  };

  /// Fields run widest first, so the narrow members share a word.
  struct Entry {
    dns::RRset rrset;  ///< its owner is the entry's key
    sim::Time inserted{};
    sim::Time expires{};
    /// Insert time of the NS entry this one rode in with.  If the NS RRset
    /// is later replaced (even by identical data), the link is considered
    /// broken: the address must be re-learned with the fresh delegation.
    sim::Time linked_ns_inserted{};
    /// Logical-clock value of the most recent touch (LRU/LFU recency).
    std::uint64_t last_touch = 0;
    /// Logical-clock value of the insert/refresh that created this entry
    /// instance.  Every insert draws a fresh one, so it is unique in the
    /// cache and identifies the matching expiry-heap record.
    std::uint64_t stamp = 0;
    dns::Ttl original_ttl{};
    /// The linked NS owner's id in ns_links_, or kNoLink.
    std::uint32_t linked_ns = kNoLink;
    Credibility credibility = Credibility::kGlue;
    /// Saturating touch counter for LFU (>= 1 for every stored entry).
    std::uint8_t freq = 1;

    const dns::Name& key() const noexcept { return rrset.name(); }
  };
  static_assert(sizeof(Entry) == 136,
                "RRset 80 B, three times and two clock draws 40 B, TTL, "
                "link id and two bytes 16 B");
  struct NegativeEntry {
    dns::Name name;  ///< the entry's key
    sim::Time expires{};
    std::uint64_t last_touch = 0;
    std::uint64_t stamp = 0;
    dns::Rcode rcode = dns::Rcode::kNXDomain;
    std::uint8_t freq = 1;

    const dns::Name& key() const noexcept { return name; }
  };

  /// The cache's index: dns::NameTable keyed on (owner, record type).
  template <typename V>
  using Table = dns::NameTable<dns::RRType, V>;
  static_assert(Table<Entry>::slot_bytes() <= 168,
                "a positive slot: hash and type 16 B, entry 136 B, two "
                "32-bit recency links and a state byte");
  static_assert(Table<NegativeEntry>::slot_bytes() <= 112,
                "a negative slot: hash and type 16 B, entry 80 B, two "
                "32-bit recency links and a state byte");

  /// @p N is dns::Name or dns::NameView.
  template <typename N>
  static std::uint64_t key_hash(const N& name, dns::RRType type) noexcept {
    return Table<Entry>::key_hash(name, type);
  }

  /// One pending expiry deadline of the entry instance with this stamp and
  /// key hash.  It names no entry: it finds its entry by probing the hash
  /// for the stamp, and a record whose stamp matches nothing covers a
  /// refreshed or removed instance and is dropped when popped.  The stamp
  /// also breaks ordering ties between equal deadlines, so TTL-aware victim
  /// selection is deterministic.
  struct ExpiryRec {
    sim::Time at{};
    std::uint64_t stamp = 0;
    std::uint64_t hash = 0;  ///< the entry's Table key hash
  };
  static_assert(std::is_trivially_copyable_v<ExpiryRec> &&
                    sizeof(ExpiryRec) == 24,
                "an expiry record is three words and carries no name");
  struct LaterExpiry {
    bool operator()(const ExpiryRec& a, const ExpiryRec& b) const noexcept {
      if (a.at != b.at) {
        return a.at > b.at;
      }
      return a.stamp > b.stamp;
    }
  };
  /// A min-heap under LaterExpiry, kept by std::push_heap/std::pop_heap.
  using ExpiryHeap = std::vector<ExpiryRec>;

  dns::Ttl clamp_ttl(dns::Ttl ttl) const;
  bool entry_live(const Entry& entry, sim::Time now) const;
  /// A hit borrowing @p entry's RRset, with remaining TTL @p ttl.
  CacheHit make_hit(const Entry& entry, dns::Ttl ttl) const;
  /// Ends every borrowed hit (DNSTTL_AUDIT only): called on entry to each
  /// method that inserts or removes entries.
  void count_mutation() noexcept {
    if constexpr (check::kAuditEnabled) {
      ++mutations_;
    }
  }
  /// True if the glue link invalidates @p entry at @p now.
  bool ns_link_broken(const Entry& entry, sim::Time now) const;
  static void push_expiry(ExpiryHeap& heap, const ExpiryRec& rec);
  static ExpiryRec pop_expiry(ExpiryHeap& heap);
  /// Slot of the entry instance @p rec covers, or kNil if it was refreshed
  /// or removed.
  template <typename V>
  static std::size_t covered_slot(const Table<V>& table, const ExpiryRec& rec) {
    return table.find_slot_if(rec.hash, [&rec](const auto& item) {
      return item.value.stamp == rec.stamp;
    });
  }
  /// Erases the entry in @p slot of @p table; a positive entry releases
  /// its NS link.  Every path that drops an entry goes through here.
  template <typename V>
  void erase_at(Table<V>& table, std::size_t slot) {
    if constexpr (std::is_same_v<V, Entry>) {
      ns_links_.release(table.at(slot).value.linked_ns);
    }
    table.erase_slot(slot);
  }
  /// Pops every record of @p heap due by @p now (deadline + @p grace) and
  /// erases the entries they cover; returns how many.
  template <typename V>
  std::size_t purge_heap(ExpiryHeap& heap, Table<V>& table,
                         sim::Duration grace, sim::Time now);
  /// Rebuilds @p heap in place from the live table once its records
  /// outnumber twice the live entries by more than eight, so refreshes of
  /// the same keys cannot grow it without bound and a small cache keeps
  /// few stale records; keeps its buffer for the pushes that follow.
  template <typename V>
  static void compact_heap(ExpiryHeap& heap, const Table<V>& table);

  /// Advances the logical clock by one touch and returns the new value.
  std::uint64_t bump_tick() noexcept { return ++tick_; }
  /// Applies the periodic LFU decay if this tick lands on the period.
  void maybe_halve();
  /// Saturating frequency bump.
  static std::uint8_t bump_freq(std::uint8_t freq) noexcept {
    return freq < 255 ? static_cast<std::uint8_t>(freq + 1) : freq;
  }
  /// Evicts victims per config.policy until the combined population fits
  /// max_entries, then records the high-water mark.
  void enforce_capacity();
  void evict_one();

  Config config_;
  Stats stats_;
  Table<Entry> entries_;
  Table<NegativeEntry> negatives_;
  NsLinks ns_links_;
  ExpiryHeap expiry_;
  ExpiryHeap negative_expiry_;
  /// Logical touch clock: unique, monotonically increasing stamp source for
  /// recency, frequency tie-breaks and expiry-record identity.
  std::uint64_t tick_ = 0;
  /// Calls that inserted or removed entries (counted under DNSTTL_AUDIT).
  std::uint64_t mutations_ = 0;

  friend class CacheHit;
};

inline const dns::RRset& CacheHit::rrset() const {
  if constexpr (check::kAuditEnabled) {
    DNSTTL_AUDIT_CHECK("cache::CacheHit", cache_->mutations_ == taken_at_,
                       "hit read after the cache inserted or removed entries");
  }
  return *rrset_;
}

}  // namespace dnsttl::cache

#endif  // DNSTTL_CACHE_CACHE_H
