// analyze-as: src/core/bare_suppression.cc
// Suppression hygiene: an allow comment must say why the finding is
// acceptable.  A bare allow still silences its rule, but is itself a
// finding.  A trailing `//` comment is not a justification.

namespace dnsttl::core {

// lint:allow(shared-mutable-in-shard)  // expect: bare-suppression
unsigned long g_bare = 0;

// lint:allow(shared-mutable-in-shard) test-only tally, reset per run
unsigned long g_justified = 0;

unsigned long g_same_line = 0;  // analyze:allow(shared-mutable-in-shard) debt

}  // namespace dnsttl::core
