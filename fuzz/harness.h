#ifndef DNSTTL_FUZZ_HARNESS_H
#define DNSTTL_FUZZ_HARNESS_H

#include <cstddef>
#include <cstdint>

namespace dnsttl::fuzz {

/// One fuzz iteration against the RFC 1035 wire codec.  Feeds @p data to
/// dns::decode; on a successful parse, re-encodes, requires
/// dns::encoded_size to count exactly the encoded bytes, re-decodes and
/// requires the round trip to reproduce the message, and renders it to
/// text.  dns::WireError is the codec's documented rejection channel and is
/// swallowed; any other escape (unexpected exception type, assertion,
/// sanitizer report) is a finding.
void run_message_input(const std::uint8_t* data, std::size_t size);

/// One fuzz iteration against the cache snapshot codec.  Feeds @p data to
/// cache::Cache::restore; on an accepted image, runs the full structural
/// audit and requires re-snapshotting to reproduce the input byte-for-byte
/// (the canonical-image fixpoint restore() documents).
/// cache::SnapshotError is the codec's documented rejection channel and is
/// swallowed; anything else — UB, audit failure, a non-canonical image
/// surviving — is a finding.
void run_cache_snapshot_input(const std::uint8_t* data, std::size_t size);

}  // namespace dnsttl::fuzz

#endif  // DNSTTL_FUZZ_HARNESS_H
