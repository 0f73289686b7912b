#include "harness.h"

#include <span>
#include <stdexcept>
#include <string>

#include "cache/cache.h"
#include "dns/message.h"
#include "dns/wire.h"

namespace dnsttl::fuzz {

namespace {

[[noreturn]] void harness_violation(const char* harness, const char* stage,
                                    const std::exception& error) {
  // Re-throwing as logic_error keeps the full context in the what() string
  // the driver (or libFuzzer) prints before aborting.
  throw std::logic_error(std::string(harness) + ": " + stage + ": " +
                         error.what());
}

}  // namespace

void run_message_input(const std::uint8_t* data, std::size_t size) {
  dns::Message message;
  try {
    message = dns::decode(std::span(data, size));
  } catch (const dns::WireError&) {
    return;  // malformed input correctly rejected
  }
  // The message parsed: everything below operates on data the codec
  // accepted, so failures are codec bugs, not input errors.
  try {
    const std::vector<std::uint8_t> wire = dns::encode(message);
    if (dns::encoded_size(message) != wire.size()) {
      throw std::logic_error("encoded_size disagrees with encode().size()");
    }
    const dns::Message reparsed = dns::decode(wire);
    if (!(reparsed == message)) {
      throw std::logic_error("encode/decode round trip changed the message");
    }
    (void)message.to_string();
  } catch (const std::exception& error) {
    harness_violation("fuzz_message", "round-trip on accepted input", error);
  }
}

void run_cache_snapshot_input(const std::uint8_t* data, std::size_t size) {
  cache::Cache cache;
  try {
    cache.restore(std::span(data, size));
  } catch (const cache::SnapshotError&) {
    return;  // corrupt image correctly rejected
  }
  // The image was accepted: the rebuilt cache must pass the deep audit and
  // serialize back to the identical bytes (restore accepts only canonical
  // images, so snapshot ∘ restore is the identity).
  try {
    cache.validate();
    const std::vector<std::uint8_t> again = cache.snapshot();
    if (again.size() != size ||
        !std::equal(again.begin(), again.end(), data)) {
      throw std::logic_error("accepted image is not a snapshot fixpoint");
    }
  } catch (const std::exception& error) {
    harness_violation("fuzz_cache_snapshot", "audit/fixpoint of accepted image",
                      error);
  }
}

}  // namespace dnsttl::fuzz
