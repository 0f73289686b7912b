#ifndef DNSTTL_CRAWL_CRAWLER_H
#define DNSTTL_CRAWL_CRAWLER_H

#include <array>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>

#include "crawl/population_generator.h"
#include "stats/cdf.h"

namespace dnsttl::crawl {

/// Per-record-type tabulation for one list — a Table 5 column.
struct TypeTally {
  std::size_t records = 0;
  std::size_t unique_values = 0;
  std::size_t ttl_zero_domain_count = 0;  ///< Table 8's per-type domain counts
  stats::Cdf ttl_cdf;                ///< Figure 9's curves

  double unique_ratio() const {
    return unique_values == 0
               ? 0.0
               : static_cast<double>(records) /
                     static_cast<double>(unique_values);
  }
};

/// Flat per-type tally table: one fixed slot per record type a crawl can
/// harvest, in ascending RRType order.  Replaces the former
/// std::map<dns::RRType, TypeTally> on the tabulation hot path — slot
/// lookup is a switch instead of a tree walk — while iteration still
/// visits touched slots in RRType order, so rendered tables are
/// byte-identical to the map-backed output.
class TypeTallyTable {
 public:
  /// Every type the generator or a live crawl can produce, ascending.
  static constexpr std::array<dns::RRType, 8> kSlots = {
      dns::RRType::kA,     dns::RRType::kNS,  dns::RRType::kCNAME,
      dns::RRType::kSOA,   dns::RRType::kMX,  dns::RRType::kTXT,
      dns::RRType::kAAAA,  dns::RRType::kDNSKEY};

  /// Map-style access: touching a slot makes it visible to iteration,
  /// exactly as operator[] inserted a key into the old map.
  TypeTally& operator[](dns::RRType type) {
    const std::size_t slot = slot_of(type);
    used_[slot] = true;
    return tallies_[slot];
  }

  /// nullptr when the crawl never saw this type (the old map.find == end).
  const TypeTally* find(dns::RRType type) const {
    const std::size_t slot = slot_of(type);
    return used_[slot] ? &tallies_[slot] : nullptr;
  }

  const TypeTally& at(dns::RRType type) const {
    const TypeTally* tally = find(type);
    if (tally == nullptr) {
      throw std::out_of_range("TypeTallyTable::at: type never tallied");
    }
    return *tally;
  }

  std::size_t size() const {
    std::size_t count = 0;
    for (bool used : used_) count += used;
    return count;
  }

  /// Iterates touched slots in ascending RRType order (the map's order).
  class const_iterator {
   public:
    const_iterator(const TypeTallyTable* table, std::size_t slot)
        : table_(table), slot_(slot) {
      skip_unused();
    }
    std::pair<dns::RRType, const TypeTally&> operator*() const {
      return {kSlots[slot_], table_->tallies_[slot_]};
    }
    const_iterator& operator++() {
      ++slot_;
      skip_unused();
      return *this;
    }
    bool operator!=(const const_iterator& other) const {
      return slot_ != other.slot_;
    }
    bool operator==(const const_iterator& other) const {
      return slot_ == other.slot_;
    }

   private:
    void skip_unused() {
      while (slot_ < kSlots.size() && !table_->used_[slot_]) ++slot_;
    }
    const TypeTallyTable* table_;
    std::size_t slot_;
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, kSlots.size()); }

  /// Mutable slot access by index for fold loops; pairs with kSlots.
  TypeTally& slot(std::size_t index) { return tallies_[index]; }
  bool slot_used(std::size_t index) const { return used_[index]; }
  void mark_used(std::size_t index) { used_[index] = true; }

  static std::size_t slot_of(dns::RRType type) {
    switch (type) {
      case dns::RRType::kA: return 0;
      case dns::RRType::kNS: return 1;
      case dns::RRType::kCNAME: return 2;
      case dns::RRType::kSOA: return 3;
      case dns::RRType::kMX: return 4;
      case dns::RRType::kTXT: return 5;
      case dns::RRType::kAAAA: return 6;
      case dns::RRType::kDNSKEY: return 7;
      default:
        throw std::out_of_range("TypeTallyTable: type outside crawl slots");
    }
  }

 private:
  std::array<TypeTally, kSlots.size()> tallies_{};
  std::array<bool, kSlots.size()> used_{};
};

/// Bailiwick classification of NS-responding domains — a Table 9 column.
struct BailiwickTally {
  std::size_t responsive = 0;
  std::size_t cname = 0;
  std::size_t soa = 0;
  std::size_t respond_ns = 0;
  std::size_t out_only = 0;
  std::size_t in_only = 0;
  std::size_t mixed = 0;
};

/// Everything the §5.1 analyses extract from one list crawl.
struct CrawlReport {
  std::string list;
  std::size_t domains = 0;
  std::size_t responsive = 0;
  TypeTallyTable by_type;
  BailiwickTally bailiwick;

  double responsive_ratio() const {
    return domains == 0 ? 0.0
                        : static_cast<double>(responsive) /
                              static_cast<double>(domains);
  }
};

/// Classifies one domain's NS targets against its own name:
/// 0 = out-of-bailiwick only, 1 = in-bailiwick only, 2 = mixed.
int classify_bailiwick(const GeneratedDomain& domain);

/// The parent-vs-child TTL comparison the paper lists as future work
/// (§5.1): for every NS-responding domain, compare the child's apex NS TTL
/// with the registry's delegation copy.
struct ParentChildReport {
  std::size_t compared = 0;
  std::size_t child_shorter = 0;
  std::size_t equal = 0;
  std::size_t child_longer = 0;
  stats::Cdf child_over_parent_ratio;  ///< child TTL / parent TTL

  double child_shorter_fraction() const {
    return compared == 0 ? 0.0
                         : static_cast<double>(child_shorter) /
                               static_cast<double>(compared);
  }
};

/// Folds one domain into @p report: NS-responding domains whose child NS
/// TTL and parent copy are both known are compared; the rest are skipped.
void tabulate_parent_child(const GeneratedDomain& domain,
                           ParentChildReport& report);

/// Streams the list described by @p params through tabulate_parent_child():
/// domain i is drawn from `list_rng.fork(i)` into one reused buffer, so the
/// population is never materialized and matches what crawl_engine() crawls
/// on the same (params, list_rng).
ParentChildReport compare_parent_child(const ListParams& params,
                                       const sim::Rng& list_rng);

}  // namespace dnsttl::crawl

#endif  // DNSTTL_CRAWL_CRAWLER_H
