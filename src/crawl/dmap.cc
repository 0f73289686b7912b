#include "crawl/dmap.h"

namespace dnsttl::crawl {

std::size_t DmapReport::total_classified() const {
  std::size_t total = 0;
  for (const auto& [content, count] : class_counts) {
    if (content != ContentClass::kUnclassified) {
      total += count;
    }
  }
  return total;
}

}  // namespace dnsttl::crawl
