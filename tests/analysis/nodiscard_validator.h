// analyze-as: src/check/nodiscard_validator.h
// A check:: validator whose result is dropped silently disables its
// audit, so every non-void validate*/check_* free function in namespace
// check must be [[nodiscard]].

namespace dnsttl::check {

bool validate_cache(const cache::Cache& cache);  // expect: nodiscard-validator
inline std::size_t check_wheel(const sim::TimerWheel& wheel) {  // expect: nodiscard-validator
  return wheel.size();
}

// True negatives: the attribute, a void validator (nothing to drop), a
// member function, and a call.
[[nodiscard]] bool validate_zone(const dns::Zone& zone);
[[nodiscard]] inline bool check_name(const dns::Name& name) {
  return !name.empty();
}
void validate_or_throw(const dns::Zone& zone);

struct Auditor {
  bool validate() const;
};

inline void audit_all(const dns::Zone& zone) {
  if (!validate_zone(zone)) audit_fail("zone", "validate_zone", "");
}

}  // namespace dnsttl::check

namespace dnsttl::core {

// Outside namespace check the rule does not apply.
bool validate_config(const Config& config);

}  // namespace dnsttl::core
