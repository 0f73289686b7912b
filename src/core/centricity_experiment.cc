#include "core/centricity_experiment.h"

#include "stats/table.h"

namespace dnsttl::core {

std::string CentricityResult::summary() const {
  return stats::fmt(
      "valid=%zu  <=child: %.1f%%  >child: %.1f%%  full-parent: %.1f%%  "
      "capped-21599: %.1f%%",
      run.valid_count(), 100.0 * at_most_child, 100.0 * above_child,
      100.0 * exact_full_parent, 100.0 * capped_21599);
}

CentricityResult run_centricity(World& world, atlas::Platform& platform,
                                const CentricitySetup& setup) {
  atlas::MeasurementSpec spec;
  spec.name = setup.name;
  spec.qname = setup.qname;
  spec.qtype = setup.qtype;
  spec.duration = setup.duration;
  spec.start = setup.start;
  spec.shard_count = setup.shard_count;
  spec.shard_index = setup.shard_index;

  return classify_centricity(
      atlas::MeasurementRun::execute(world.simulation(), world.network(),
                                     platform, spec, world.rng()),
      setup);
}

CentricityResult classify_centricity(atlas::MeasurementRun run,
                                     const CentricitySetup& setup) {
  CentricityResult result{std::move(run), 0.0, 0.0, 0.0, 0.0};

  auto cdf = result.run.ttl_cdf();
  if (!cdf.empty()) {
    result.at_most_child =
        cdf.fraction_at_most(static_cast<double>(setup.child_ttl.value()));
    result.above_child = 1.0 - result.at_most_child;
    result.exact_full_parent =
        cdf.fraction_equal(static_cast<double>(setup.parent_ttl.value()));
    result.capped_21599 = cdf.fraction_equal(21599.0);
  }
  return result;
}

}  // namespace dnsttl::core
