// analyze-as: src/core/raw_new.cc
// True positives: raw new/delete in src/ — ownership goes through
// containers and smart pointers.

namespace dnsttl::core {

int* make_counter() {
  return new int(0);  // expect: raw-new
}

void drop_counter(int* counter) {
  delete counter;  // expect: raw-new
}

void drop_block(int* block) {
  delete[] block;  // expect: raw-new
}

// True negatives: placement new constructs into storage something else
// owns, `= delete` removes a function, and `operator new` declares the
// allocation function rather than calling it.
struct Slot {
  alignas(int) unsigned char buf[sizeof(int)];
  Slot() { ::new (static_cast<void*>(buf)) int(0); }
  Slot(const Slot&) = delete;
  Slot& operator=(const Slot&) = delete;
  static void* operator new(std::size_t size);
  static void operator delete(void* p);
};

// An allow with a justification silences the finding on the next line.
// lint:allow(raw-new) the arena below owns and frees this block
int* arena_block() { return new int[64]; }

}  // namespace dnsttl::core
