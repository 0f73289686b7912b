#ifndef DNSTTL_CHECK_AUDIT_H
#define DNSTTL_CHECK_AUDIT_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

/// DNSTTL_AUDIT is defined to 1 by the build system (-DDNSTTL_AUDIT=ON in
/// CMake) for audit builds.  The validate() bodies themselves are compiled
/// in every configuration so they cannot rot; only the automatic hot-path
/// hooks (`if constexpr (check::kAuditEnabled)`) compile away when off.
#ifndef DNSTTL_AUDIT
#define DNSTTL_AUDIT 0
#endif

namespace dnsttl::check {

/// True in audit builds.  Hot paths guard audit hooks with
/// `if constexpr (kAuditEnabled)` so the disabled configuration carries
/// zero code, not a runtime branch.
inline constexpr bool kAuditEnabled = DNSTTL_AUDIT != 0;

/// Thrown when a structural invariant audit fails.  Derived from
/// std::logic_error: an audit failure is a library bug, never an input
/// error, and must not be swallowed by the WireError/SnapshotError
/// handlers on the decoding paths.
class AuditError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Counters for audit activity; audit-mode tests assert these move so a
/// silently disabled audit hook cannot pass for a healthy one.  The
/// counters are THREAD-LOCAL (shard-local): every par:: worker thread —
/// and therefore every experiment shard — accumulates its own block, so
/// audit hooks stay race-free and zero-contention under parallel
/// execution.  Read them from the thread that did the work.
struct AuditStats {
  std::uint64_t audits = 0;    ///< completed validate() passes
  std::uint64_t checks = 0;    ///< individual invariants evaluated
  std::uint64_t failures = 0;  ///< invariant violations detected
};

AuditStats& audit_stats() noexcept;

/// Records one completed validate() pass.
void count_audit() noexcept;

/// Builds the failure message and throws AuditError.  @p structure names
/// the audited structure ("sim::Simulation", "cache::Cache", "dns::Name"),
/// @p invariant is the stringified condition, @p detail adds values.
[[noreturn]] void audit_fail(std::string_view structure,
                             std::string_view invariant,
                             const std::string& detail);

namespace internal {
inline void count_check() noexcept { ++audit_stats().checks; }
}  // namespace internal

}  // namespace dnsttl::check

/// Evaluates one invariant inside a validate() implementation.  @p detail
/// is only evaluated on failure, so it may build strings freely.
#define DNSTTL_AUDIT_CHECK(structure, cond, detail)            \
  do {                                                         \
    ::dnsttl::check::internal::count_check();                  \
    if (!(cond)) {                                             \
      ::dnsttl::check::audit_fail((structure), #cond, (detail)); \
    }                                                          \
  } while (false)

#endif  // DNSTTL_CHECK_AUDIT_H
