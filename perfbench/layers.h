// Timed calls of the traced run: each layer's public functions fed the
// workload's own inputs, reported as the median cost of one call.

#ifndef DNSTTL_PERFBENCH_LAYERS_H
#define DNSTTL_PERFBENCH_LAYERS_H

#include <vector>

#include "auth/auth_server.h"
#include "core/world.h"
#include "dns/message.h"
#include "dns/zone.h"
#include "perfbench.h"

namespace perfbench {

using namespace dnsttl;

/// Taken from one workload's world after the workload has finished.
struct LayerInputs {
  core::World* world = nullptr;     ///< network, root hints, virtual clock
  const dns::Zone* zone = nullptr;  ///< the workload's largest zone
  auth::AuthServer* server = nullptr;  ///< answers `questions`
  net::Address server_address;
  std::vector<dns::Question> questions;  ///< the workload's own qnames
};

/// Adds dns.zone_rrsets and every `_ns` metric of the dns, auth, net,
/// resolver and cache layers to @p out.  Mutates the world (network RNG,
/// server counters and logs), so counts must be read before calling it.
void time_layers(const LayerInputs& inputs, Tally& out);

}  // namespace perfbench

#endif  // DNSTTL_PERFBENCH_LAYERS_H
