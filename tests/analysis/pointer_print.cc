// analyze-as: src/core/pointer_print.cc
// True positive: a printf pointer conversion prints an address, and ASLR
// moves addresses from run to run, so the output stops being a function
// of the seed.  The rule reads string literals, so the conversion is
// found inside the format string itself.

namespace dnsttl::core {

void dump(const void* p, int x) {
  std::printf("%p\n", p);  // expect: pointer-print
  std::printf("slot %d at %-18p\n", x, p);  // expect: pointer-print
  std::printf("%%%p\n", p);  // expect: pointer-print

  // True negatives: `%%p` is a literal percent followed by a `p`, and a
  // modulo between two operands is code, not a format string.
  std::printf("load 42%%p\n");
  int p_count = x % 7;
  std::printf("%d%% packets\n", p_count);
}

}  // namespace dnsttl::core
