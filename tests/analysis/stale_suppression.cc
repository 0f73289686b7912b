// analyze-as: src/core/stale_suppression.cc
// Suppression hygiene: an allow comment whose rule no longer fires on the
// covered line is itself flagged, and so is one naming no rule at all (a
// misspelled rule never fires, and the rule it meant is not silenced); a
// suppression that still earns its keep is not.

namespace dnsttl::core {

// analyze:allow(wall-clock) the clock read moved out long ago  // expect: stale-suppression
inline int answer() { return 42; }

// lint:allow(shared-mutable-in-shard) documented debt, still real
unsigned long g_live_tally = 0;

// lint:allow(raw-news) misspelled rule name  // expect: stale-suppression
inline int other() { return 7; }

// lint:allow(raw-new) the caller adopts the block into a unique_ptr
inline int* adopt() { return new int(7); }

// lint:allow(raw-news) misspelled rule name  // expect: stale-suppression
inline int* misspelled() { return new int(1); }  // expect: raw-new

}  // namespace dnsttl::core
