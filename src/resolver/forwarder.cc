#include "resolver/forwarder.h"

namespace dnsttl::resolver {

std::optional<sim::Duration> Forwarder::serve(const dns::Message& query,
                                             net::Address /*client*/,
                                             sim::Time now,
                                             dns::Message& reply) {
  if (backends_.empty()) {
    return std::nullopt;
  }
  std::size_t index = 0;
  if (backends_.size() > 1) {
    switch (selection_) {
      case Selection::kRoundRobin:
        index = counter_++ % backends_.size();
        break;
      case Selection::kHashQname: {
        std::size_t h = query.questions.empty()
                            ? 0
                            : std::hash<dns::Name>{}(query.question().qname);
        index = h % backends_.size();
        break;
      }
    }
  }
  // The backend's answer goes straight into the reply this forwarder owes.
  const auto result = network_.exchange(self_, backends_[index], query, now,
                                        reply);
  if (!result.answered) {
    return std::nullopt;
  }
  return result.elapsed;
}

}  // namespace dnsttl::resolver
