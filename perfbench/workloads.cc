// The four paper workloads, each run through the library's public entry
// points.  An untraced run calls the sharded entry points exactly as the
// experiment binaries do.  The traced run reads each shard replica's Stats
// before the replica is dropped: centricity through a wrapper around its
// shard script, renumber (whose sharded entry point takes no script) by
// calling core::run_bailiwick once per shard itself.  Both must render
// byte-identical output, which the pinned digest checks.

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>

#include "atlas/platform.h"
#include "core/bailiwick_experiment.h"
#include "core/centricity_experiment.h"
#include "core/sharded.h"
#include "crawl/engine.h"
#include "crawl/materialize.h"
#include "crawl/passive_workload.h"
#include "layers.h"
#include "par/pool.h"
#include "perfbench.h"
#include "stats/cdf.h"
#include "stats/table.h"

namespace perfbench {
namespace {

// Workload sizes.  Each is a fixed fraction of paper scale, small enough
// that one jobs-1 run takes a second or less (so a measuring window holds
// many runs) while keeping the property the workload is there for:
// renumber and centricity still split into several shards, passive still
// logs a fresh name per query, crawl still streams five lists.
constexpr std::size_t kProbes = 900;  // 3 shards; paper: ~9000
constexpr std::size_t kResolvers = 600;
constexpr std::size_t kPassiveResolvers = 3000;  // paper: 205k
/// Lookups/day cap of the Pareto demand (paper calibration: 400).  With
/// the paper cap a few capped resolvers swing total demand by more than
/// 10% from seed to seed; at 20 the swing is about 2%.
constexpr double kPassiveDemandCap = 20;
constexpr std::size_t kCrawlTopList = 10000;  // .nl list is 5x this
/// Set-up that is outside the entry point and only microseconds long
/// (passive's World, crawl's list parameters) is repeated this many times
/// and its median reported, so one cold call does not decide setup_s.
constexpr std::size_t kSetupRepeats = 9;
/// Inputs of the timed calls: at most this many of the workload's qnames,
/// and this many crawl domains stood up as live zones.
constexpr std::size_t kTimedQuestions = 256;
constexpr std::size_t kCrawlFixtureDomains = 64;

const net::Location kEu{net::Region::kEU, 1.0};

const std::vector<std::string> kRootServers = {
    "a.root-servers.net", "k.root-servers.net", "m.root-servers.net"};

atlas::PlatformSpec platform_spec() {
  atlas::PlatformSpec spec;
  spec.probe_count = kProbes;
  spec.resolver_count = kResolvers;
  return spec;
}

/// Time spent inside the benchmark's set-up calls, from any shard thread.
class SetupClock {
 public:
  void add(double seconds) {
    std::lock_guard<std::mutex> lock(mutex_);
    seconds_ += seconds;
    ++calls_;
  }
  double seconds() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return seconds_;
  }
  std::size_t calls() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return calls_;
  }

 private:
  mutable std::mutex mutex_;
  double seconds_ = 0;
  std::size_t calls_ = 0;
};

/// The replica factory of renumber and centricity: a World (with the .uy
/// TLD for centricity, added before the platform as the .uy experiment
/// does) and Platform::build on the world's RNG, timed.
core::EnvFactory make_factory(std::uint64_t seed, bool with_uy,
                              SetupClock& clock, Tracer* tracer,
                              std::size_t parent) {
  return [=, &clock] {
    const auto start = Clock::now();
    Scope span(tracer, "core.EnvFactory", parent);
    core::ShardEnv env;
    env.world = std::make_unique<core::World>(
        core::World::Options{seed, 0.002, {}});
    if (with_uy) {
      env.world->add_tld("uy", "a.nic", dns::kTtl2Days, dns::kTtl5Min,
                         dns::Ttl{120}, net::Location{net::Region::kSA, 1.0});
    }
    {
      Scope build(tracer, "atlas.Platform::build", span.id());
      env.platform = std::make_unique<atlas::Platform>(atlas::Platform::build(
          env.world->network(), env.world->hints(), env.world->root_zone(),
          platform_spec(), env.world->rng()));
    }
    clock.add(seconds_since(start));
    return env;
  };
}

/// Set-up that runs outside the entry point and takes microseconds:
/// warm_up() times kSetupRepeats - 1 discarded calls before the run's
/// clock starts, run() times the call the run uses, and median_s() is
/// the median of all of them.
class RepeatedSetup {
 public:
  template <typename Make>
  void warm_up(Make&& make) {
    for (std::size_t i = 1; i < kSetupRepeats; ++i) run(make);
  }
  template <typename Make>
  auto run(Make&& make) {
    const auto start = Clock::now();
    auto value = make();
    times_.push_back(seconds_since(start));
    return value;
  }
  double median_s() const { return median(times_); }

 private:
  std::vector<double> times_;
};

// ------------------------------------------------------------ counting

void add_resolver_counts(Tally& t, const resolver::RecursiveResolver& r) {
  const auto& s = r.stats();
  t["resolver.client_queries"] += static_cast<double>(s.client_queries);
  t["resolver.cache_answers"] += static_cast<double>(s.cache_answers);
  t["resolver.full_resolutions"] += static_cast<double>(s.full_resolutions);
  t["resolver.upstream_queries"] += static_cast<double>(s.upstream_queries);
  t["resolver.servfails"] += static_cast<double>(s.servfails);
  t["resolver.tcp_retries"] += static_cast<double>(s.tcp_retries);
  const auto& c = r.cache().stats();
  t["cache.hits"] += static_cast<double>(c.hits);
  t["cache.misses"] += static_cast<double>(c.misses);
  t["cache.inserts"] += static_cast<double>(c.inserts);
  t["cache.entries"] +=
      static_cast<double>(r.cache().size() + r.cache().negative_size());
}

/// Network, simulation and authoritative-server counts of one world.
/// Every ident must exist: a typo would otherwise read as zero work.
void add_world_counts(Tally& t, core::World& world,
                      const std::vector<std::string>& servers) {
  t["net.queries_carried"] +=
      static_cast<double>(world.network().queries_carried());
  t["sim.events"] += static_cast<double>(world.simulation().events_processed());
  for (const auto& ident : servers) {
    auto& server = world.server(ident);
    t["auth.queries"] += static_cast<double>(server.queries_answered());
    t["auth.log_entries"] += static_cast<double>(server.log().size());
  }
}

void add_platform_counts(Tally& t, atlas::Platform& platform) {
  for (const auto& member : platform.resolver_population().members()) {
    add_resolver_counts(t, *member.resolver);
  }
  for (const auto& site : platform.public_site_resolvers()) {
    add_resolver_counts(t, *site);
  }
}

void add_run_counts(Tally& t, const atlas::MeasurementRun& run) {
  t["atlas.vp_queries"] += static_cast<double>(run.query_count());
  t["atlas.timeouts"] += static_cast<double>(run.timeout_count());
}

/// Max and max/mean of the shards' busy times: the durations of the spans
/// called @p span, one per shard.
void add_shard_busy(Result& result, const Tracer& tracer, std::string_view span) {
  const std::vector<double> busy = tracer.durations(span);
  double max = 0;
  double sum = 0;
  for (double b : busy) {
    max = std::max(max, b);
    sum += b;
  }
  result.layers["par.shard_busy_max_s"] = max;
  result.layers["par.shard_imbalance"] =
      max / (sum / static_cast<double>(busy.size()));
}

/// Ratios over the summed counts, in the workloads that report the counts.
/// A metric a workload cannot read stays out of the tally (it is listed
/// in Result::absent), so nothing reads 0 for want of a counter.
void finish_layers(Tally& t) {
  if (t.contains("resolver.upstream_queries")) {
    t["resolver.upstream_per_client"] =
        t["resolver.upstream_queries"] / t["resolver.client_queries"];
  }
  if (t.contains("cache.hits")) {
    t["cache.hit_ratio"] = t["cache.hits"] / (t["cache.hits"] + t["cache.misses"]);
  }
}

void mark_absent(Result& result, const std::vector<std::string>& names,
                 const std::string& reason) {
  for (const auto& name : names) result.absent[name] = reason;
}

std::vector<dns::Question> probe_questions(const dns::Name& base,
                                           const atlas::Platform& platform) {
  std::vector<dns::Question> questions;
  for (const auto& probe : platform.probes()) {
    if (questions.size() == kTimedQuestions) break;
    questions.push_back(dns::Question{base.prepend("p" + std::to_string(probe.id)),
                                      dns::RRType::kAAAA, dns::RClass::kIN});
  }
  return questions;
}

const dns::Zone* largest_zone(const auth::AuthServer& server) {
  const dns::Zone* largest = nullptr;
  for (const auto& zone : server.zones()) {
    if (largest == nullptr || zone->rrset_count() > largest->rrset_count()) {
      largest = zone.get();
    }
  }
  return largest;
}

// ------------------------------------------------------------ renumber

std::vector<std::string> renumber_servers(bool in_bailiwick) {
  std::vector<std::string> servers = kRootServers;
  for (const char* ident :
       {"a.gtld-servers.net.", "ns1.cachetest.net.", "ns2.cachetest.net.",
        "sub-original", "sub-renumbered"}) {
    servers.emplace_back(ident);
  }
  if (!in_bailiwick) servers.emplace_back("a.nic.com.");
  return servers;
}

std::string render_bailiwick(const char* name,
                             const core::BailiwickResult& result) {
  std::string out = stats::fmt(
      "--- %s ---\nqueries=%zu timeouts=%zu responses=%zu valid=%zu\n", name,
      result.run.query_count(), result.run.timeout_count(),
      result.run.response_count(), result.run.valid_count());
  out += result.series.render();
  out += stats::fmt(
      "sticky VPs: %zu  sticky resolvers: %zu\n"
      "switched by t=85min: %.6f  by t=145min: %.6f\n",
      result.sticky_vp_count(), result.sticky_resolver_count(),
      result.switched_fraction_by(85), result.switched_fraction_by(145));
  return out;
}

std::string render_renumber(const core::BailiwickResult& in,
                            const core::BailiwickResult& out) {
  std::string text = render_bailiwick("in-bailiwick", in) +
                     render_bailiwick("out-of-bailiwick", out);
  auto ratios = core::matched_vp_new_ratios(in, out);
  text += stats::fmt("matched sticky VPs: %zu\n", ratios.size());
  if (!ratios.empty()) {
    text += stats::Cdf(std::move(ratios))
                .render({0.0, 0.25, 0.5, 0.75, 0.9, 1.0}, "new-server ratio");
  }
  return text;
}

/// The merge core::run_bailiwick_sharded performs, for the traced run's
/// own shard results.
core::BailiwickResult merge_bailiwick(std::vector<core::BailiwickResult> shards) {
  if (shards.size() == 1) return std::move(shards.front());
  auto spec = shards.front().run.spec();
  std::vector<atlas::MeasurementRun> runs;
  for (auto& shard : shards) runs.push_back(std::move(shard.run));
  core::BailiwickResult merged{
      atlas::MeasurementRun::merge(std::move(spec), std::move(runs)),
      stats::BinnedSeries{10 * sim::kMinute},
      {}};
  for (auto& shard : shards) {
    merged.series.merge(shard.series);
    for (auto& [key, vp] : shard.vps) merged.vps.emplace(key, std::move(vp));
  }
  return merged;
}

Result run_renumber(const Options& o) {
  Result result;
  Tracer* tracer = o.tracer;
  const auto start = Clock::now();
  Scope root(tracer, "workload", 0);
  SetupClock clock;
  const std::size_t shards = par::shard_count_for(kProbes);
  std::vector<core::BailiwickResult> results;
  std::unique_ptr<core::ShardEnv> kept;  // the traced run's timed-call world

  for (bool in_bailiwick : {true, false}) {
    core::BailiwickConfig config;
    config.in_bailiwick = in_bailiwick;
    Scope experiment(tracer, "experiment", root.id());
    if (tracer == nullptr) {
      results.push_back(core::run_bailiwick_sharded(
          make_factory(o.seed, false, clock, nullptr, 0), config, shards,
          o.jobs));
      continue;
    }
    std::vector<Tally> counts(shards);  // by shard index
    auto shard_results = par::map_shards(shards, o.jobs, [&](std::size_t shard) {
      Scope span(tracer, "par.shard", experiment.id());
      core::ShardEnv env = make_factory(o.seed, false, clock, tracer, span.id())();
      core::BailiwickConfig shard_config = config;
      shard_config.shard_count = shards;
      shard_config.shard_index = shard;
      core::BailiwickResult shard_result;
      {
        Scope measure(tracer, "atlas.measure", span.id());
        shard_result = core::run_bailiwick(*env.world, *env.platform, shard_config);
      }
      add_world_counts(counts[shard], *env.world, renumber_servers(in_bailiwick));
      add_platform_counts(counts[shard], *env.platform);
      add_run_counts(counts[shard], shard_result.run);
      if (in_bailiwick && shard == 0) {
        kept = std::make_unique<core::ShardEnv>(std::move(env));
      }
      return shard_result;
    });
    for (const auto& shard_counts : counts) add_tally(result.layers, shard_counts);
    results.push_back(merge_bailiwick(std::move(shard_results)));
  }
  {
    Scope analysis(tracer, "stats.analysis", root.id());
    result.rendered = render_renumber(results[0], results[1]);
  }
  result.wall_s = seconds_since(start);
  result.setup_s = clock.seconds();

  if (tracer != nullptr) {
    result.layers["core.replicas"] = static_cast<double>(clock.calls());
    result.layers["par.shards"] = static_cast<double>(2 * shards);
    add_shard_busy(result, *tracer, "atlas.measure");
    core::World& world = *kept->world;
    auto& server = world.server("sub-original");
    LayerInputs inputs{&world, largest_zone(server), &server,
                       world.address_of("sub-original"),
                       probe_questions(dns::Name::from_string("sub.cachetest.net"),
                                       *kept->platform)};
    time_layers(inputs, result.layers);
    mark_absent(result,
                {"crawl.domains", "crawl.queries", "crawl.steps",
                 "crawl.in_flight_high_water", "crawl.engine_s"},
                "no crawl engine call in this workload");
  }
  return result;
}

// ---------------------------------------------------------- centricity

struct CentricityPhases {
  core::CentricitySetup ns;
  core::CentricitySetup a;
  core::CentricitySetup renewed;  ///< uy-NS after the child raised its TTL
};

CentricityPhases centricity_phases() {
  CentricityPhases p;
  p.ns.name = "uy-NS";
  p.ns.qname = dns::Name::from_string("uy");
  p.ns.qtype = dns::RRType::kNS;
  p.ns.parent_ttl = dns::kTtl2Days;
  p.ns.child_ttl = dns::kTtl5Min;
  p.ns.duration = 2 * sim::kHour;
  p.a.name = "a.nic.uy-A";
  p.a.qname = dns::Name::from_string("a.nic.uy");
  p.a.qtype = dns::RRType::kA;
  p.a.parent_ttl = dns::kTtl2Days;
  p.a.child_ttl = dns::Ttl{120};
  p.a.duration = 3 * sim::kHour;
  p.renewed = p.ns;
  p.renewed.name = "uy-NS-new";
  p.renewed.child_ttl = dns::kTtl1Day;
  return p;
}

/// The three §3 phases on one shard's replica, as the .uy experiment runs
/// them: caches flushed between phases, and the child NS TTL raised to one
/// day before the third.
std::vector<atlas::MeasurementRun> centricity_script(core::ShardEnv& env,
                                                     std::size_t shard,
                                                     std::size_t count) {
  const CentricityPhases p = centricity_phases();
  auto& world = *env.world;
  std::vector<atlas::MeasurementRun> runs;
  core::CentricitySetup s1 = p.ns;
  s1.shard_count = count;
  s1.shard_index = shard;
  runs.push_back(std::move(core::run_centricity(world, *env.platform, s1).run));

  core::CentricitySetup s2 = p.a;
  s2.shard_count = count;
  s2.shard_index = shard;
  s2.start = world.simulation().now() + sim::kHour;
  env.platform->flush_all();
  runs.push_back(std::move(core::run_centricity(world, *env.platform, s2).run));

  world.server("a.nic.uy.").zones().back()->set_ttl(
      dns::Name::from_string("uy"), dns::RRType::kNS, dns::kTtl1Day);
  core::CentricitySetup s3 = p.renewed;
  s3.shard_count = count;
  s3.shard_index = shard;
  s3.start = world.simulation().now() + sim::kHour;
  env.platform->flush_all();
  runs.push_back(std::move(core::run_centricity(world, *env.platform, s3).run));
  return runs;
}

std::string render_centricity(std::vector<atlas::MeasurementRun> runs) {
  const CentricityPhases p = centricity_phases();
  const core::CentricitySetup* setups[] = {&p.ns, &p.a, &p.renewed};
  std::string out;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    auto result = core::classify_centricity(std::move(runs[i]), *setups[i]);
    out += stats::fmt(
        "--- %s ---\nqueries=%zu responses=%zu valid=%zu disc=%zu\n",
        setups[i]->name.c_str(), result.run.query_count(),
        result.run.response_count(), result.run.valid_count(),
        result.run.discarded_count());
    out += result.summary() + "\n";
    out += result.run.ttl_cdf().render(
        {0, 60, 120, 300, 600, 3600, 21599, 86400, 172800}, setups[i]->name);
  }
  return out;
}

Result run_centricity(const Options& o) {
  Result result;
  Tracer* tracer = o.tracer;
  const auto start = Clock::now();
  Scope root(tracer, "workload", 0);
  SetupClock clock;
  const std::size_t shards = par::shard_count_for(kProbes);
  std::vector<atlas::MeasurementRun> runs;
  std::vector<Tally> counts(shards);  // traced: by shard index
  std::unique_ptr<core::ShardEnv> kept;  // traced: the timed-call world
  {
    Scope experiment(tracer, "experiment", root.id());
    core::ShardScript script = centricity_script;
    if (tracer != nullptr) {
      script = [&](core::ShardEnv& env, std::size_t shard, std::size_t count) {
        Scope span(tracer, "par.shard", experiment.id());
        std::vector<atlas::MeasurementRun> shard_runs;
        {
          Scope measure(tracer, "atlas.measure", span.id());
          shard_runs = centricity_script(env, shard, count);
        }
        std::vector<std::string> servers = kRootServers;
        servers.emplace_back("a.nic.uy.");
        add_world_counts(counts[shard], *env.world, servers);
        add_platform_counts(counts[shard], *env.platform);
        for (const auto& phase : shard_runs) add_run_counts(counts[shard], phase);
        if (shard == 0) kept = std::make_unique<core::ShardEnv>(std::move(env));
        return shard_runs;
      };
    }
    runs = core::run_sharded_script(
        make_factory(o.seed, true, clock, tracer, experiment.id()), shards,
        o.jobs, script);
  }
  {
    Scope analysis(tracer, "stats.analysis", root.id());
    result.rendered = render_centricity(std::move(runs));
  }
  result.wall_s = seconds_since(start);
  result.setup_s = clock.seconds();

  if (tracer != nullptr) {
    for (const auto& shard_counts : counts) add_tally(result.layers, shard_counts);
    result.layers["core.replicas"] = static_cast<double>(clock.calls());
    result.layers["par.shards"] = static_cast<double>(shards);
    add_shard_busy(result, *tracer, "atlas.measure");
    core::World& world = *kept->world;
    auto& server = world.server("a.nic.uy.");
    const CentricityPhases p = centricity_phases();
    LayerInputs inputs{&world, largest_zone(server), &server,
                       world.address_of("a.nic.uy."),
                       {dns::Question{p.ns.qname, p.ns.qtype, dns::RClass::kIN},
                        dns::Question{p.a.qname, p.a.qtype, dns::RClass::kIN}}};
    time_layers(inputs, result.layers);
    mark_absent(result,
                {"crawl.domains", "crawl.queries", "crawl.steps",
                 "crawl.in_flight_high_water", "crawl.engine_s"},
                "no crawl engine call in this workload");
  }
  return result;
}

// ------------------------------------------------------------- passive

std::string render_passive(const crawl::PassiveReport& r) {
  std::string out = stats::fmt(
      "client queries: %zu\nlogged queries: %zu\nunique resolvers: %zu\n"
      "groups: %zu\nsingle-query groups: %zu\nmulti fraction: %.6f\n"
      "single also multi: %.6f\n",
      r.client_queries, r.logged_queries, r.unique_resolvers, r.groups,
      r.single_query_groups, r.multi_fraction, r.single_ips_also_multi);
  out += r.queries_per_group.render({1, 2, 3, 5, 10, 20, 50}, "queries/group");
  out += r.queries_per_group_filtered.render({1, 2, 3, 5, 10, 20, 50},
                                             "queries/group (filtered)");
  out += r.min_interarrival_hours.render(
      {0.5, 1.0, 1.5, 2.0, 3.0, 6.0, 12.0, 24.0}, "min interarrival (h)");
  return out;
}

Result run_passive(const Options& o) {
  Result result;
  Tracer* tracer = o.tracer;
  auto make_world = [&] {
    return std::make_unique<core::World>(core::World::Options{o.seed, 0.002, {}});
  };
  RepeatedSetup setup;
  setup.warm_up(make_world);
  const auto start = Clock::now();
  Scope root(tracer, "workload", 0);
  std::unique_ptr<core::World> world;
  {
    Scope span(tracer, "core.World", root.id());
    world = setup.run(make_world);
  }
  result.setup_s = setup.median_s();
  crawl::PassiveConfig config;
  config.resolver_count = kPassiveResolvers;
  config.seed = o.seed;
  config.demand_cap_per_day = kPassiveDemandCap;
  crawl::PassiveReport report;
  {
    Scope experiment(tracer, "experiment", root.id());
    report = crawl::run_passive_nl(*world, config);
  }
  {
    Scope analysis(tracer, "stats.analysis", root.id());
    result.rendered = render_passive(report);
  }
  result.wall_s = seconds_since(start);

  if (tracer != nullptr) {
    std::vector<std::string> servers = kRootServers;
    for (int i = 1; i <= 4; ++i) {
      servers.push_back("ns" + std::to_string(i) + ".dns.nl.");
    }
    add_world_counts(result.layers, *world, servers);
    result.layers["resolver.client_queries"] =
        static_cast<double>(report.client_queries);
    result.layers["par.shards"] = 1;
    add_shard_busy(result, *tracer, "experiment");
    mark_absent(result,
                {"resolver.cache_answers", "resolver.full_resolutions",
                 "resolver.upstream_queries", "resolver.servfails",
                 "resolver.tcp_retries", "resolver.upstream_per_client",
                 "cache.hits", "cache.misses", "cache.inserts",
                 "cache.entries", "cache.hit_ratio"},
                "the resolver population lives inside crawl::run_passive_nl");
    mark_absent(result,
                {"core.replicas", "atlas.vp_queries", "atlas.timeouts",
                 "atlas.platform_build_s", "atlas.measure_s"},
                "no EnvFactory or Atlas platform: one World, demand on the "
                "timer wheel");
    mark_absent(result,
                {"crawl.domains", "crawl.queries", "crawl.steps",
                 "crawl.in_flight_high_water", "crawl.engine_s"},
                "no crawl engine call in this workload");

    // The .nl zone answers every client query (NXDOMAIN for a fresh name).
    auto& server = world->server("ns1.dns.nl.");
    const dns::Zone* nl_zone = nullptr;
    for (const auto& zone : server.zones()) {
      if (zone->origin() == dns::Name::from_string("nl")) nl_zone = zone.get();
    }
    LayerInputs inputs{world.get(), nl_zone, &server,
                       world->address_of("ns1.dns.nl."), {}};
    for (std::size_t i = 0; i < kTimedQuestions; ++i) {
      inputs.questions.push_back(dns::Question{
          dns::Name::from_string("u0-r" + std::to_string(i) + ".nl"),
          dns::RRType::kA, dns::RClass::kIN});
    }
    time_layers(inputs, result.layers);
  }
  return result;
}

// --------------------------------------------------------------- crawl

std::vector<crawl::ListParams> crawl_lists() {
  return {crawl::alexa_params(kCrawlTopList), crawl::majestic_params(kCrawlTopList),
          crawl::umbrella_params(kCrawlTopList), crawl::nl_params(5 * kCrawlTopList),
          crawl::root_params()};
}

std::string render_crawl(const std::vector<crawl::CrawlReport>& reports) {
  stats::TablePrinter sizes({"", "Alexa", "Majestic", "Umbre.", ".nl", "Root"});
  auto row = [&](const std::string& label, auto getter) {
    std::vector<std::string> cells{label};
    for (const auto& report : reports) cells.push_back(getter(report));
    sizes.add_row(std::move(cells));
  };
  row("domains", [](const crawl::CrawlReport& r) { return std::to_string(r.domains); });
  row("responsive",
      [](const crawl::CrawlReport& r) { return std::to_string(r.responsive); });
  const dns::RRType types[] = {dns::RRType::kNS, dns::RRType::kA,
                               dns::RRType::kAAAA, dns::RRType::kMX,
                               dns::RRType::kDNSKEY, dns::RRType::kCNAME};
  for (auto type : types) {
    row(std::string(dns::to_string(type)), [type](const crawl::CrawlReport& r) {
      const auto* tally = r.by_type.find(type);
      return tally == nullptr ? std::string("-")
                              : stats::fmt("%zu/%zu", tally->records,
                                           tally->unique_values);
    });
  }
  std::string out = sizes.render();
  for (auto type : types) {
    stats::TablePrinter cdf({"TTL(s)", "Alexa", "Majestic", "Umbre.", ".nl", "Root"});
    for (double ttl : {0.0, 60.0, 300.0, 900.0, 3600.0, 7200.0, 14400.0,
                       43200.0, 86400.0, 172800.0}) {
      std::vector<std::string> cells{stats::fmt("%.0f", ttl)};
      for (const auto& report : reports) {
        const auto* tally = report.by_type.find(type);
        cells.push_back(tally == nullptr || tally->ttl_cdf.empty()
                            ? "-"
                            : stats::fmt("%.6f",
                                         tally->ttl_cdf.fraction_at_most(ttl)));
      }
      cdf.add_row(std::move(cells));
    }
    out += std::string(dns::to_string(type)) + " TTL CDF\n" + cdf.render();
  }
  return out;
}

/// The crawl never runs the simulator, so the timed calls stand its own
/// domains up as live zones the way crawl::crawl_nested does: a TLD server
/// delegating each domain to one child host.
void time_crawl_layers(const crawl::ListParams& params, const sim::Rng& list_rng,
                       std::uint64_t seed, Tally& out) {
  core::World world(core::World::Options{seed, /*loss_rate=*/0.0, {}});
  const std::string suffix = crawl::list_suffix(params);
  auto tld = world.add_tld(suffix, "ns", dns::kTtl2Days, dns::Ttl{3600},
                           dns::Ttl{3600}, kEu);
  auto& host = world.add_server("perfbench-crawl-child", kEu);
  const auto host_address = world.address_of("perfbench-crawl-child");
  LayerInputs inputs{&world, tld.get(), &host, host_address, {}};
  crawl::GeneratedDomain domain;
  std::size_t stood_up = 0;
  for (std::size_t i = 0; i < params.domains && stood_up < kCrawlFixtureDomains;
       ++i) {
    sim::Rng domain_rng = list_rng.fork(i);
    crawl::generate_domain(params, suffix, i, domain_rng, domain);
    if (!domain.responsive || domain.records.empty() ||
        domain.ns_answer != crawl::NsAnswerKind::kNsRecords) {
      continue;
    }
    auto origin = dns::Name::from_string(domain.name);
    auto zone = std::make_shared<dns::Zone>(origin);
    zone->add(dns::make_soa(origin, dns::Ttl{3600}, origin.prepend("ns1"), 1));
    std::set<dns::RRType> asked;
    for (const auto& record : domain.records) {
      const auto owner = crawl::harvest_owner(origin, record.type);
      zone->add(dns::ResourceRecord{owner, dns::RClass::kIN, record.ttl,
                                    crawl::materialize(record)});
      if (asked.insert(record.type).second) {
        inputs.questions.push_back(
            dns::Question{owner, record.type, dns::RClass::kIN});
      }
    }
    world.delegate(*tld, origin, {{origin.prepend("ns0"), host_address}},
                   params.registry_ns_ttl, dns::Ttl{3600});
    host.add_zone(zone);
    ++stood_up;
  }
  time_layers(inputs, out);
}

Result run_crawl(const Options& o) {
  Result result;
  Tracer* tracer = o.tracer;
  RepeatedSetup setup;
  setup.warm_up(crawl_lists);
  const auto start = Clock::now();
  Scope root(tracer, "workload", 0);
  std::vector<crawl::ListParams> lists;
  const sim::Rng rng(o.seed);
  {
    Scope span(tracer, "crawl.ListParams", root.id());
    lists = setup.run(crawl_lists);
  }
  result.setup_s = setup.median_s();
  crawl::EngineOptions options;
  options.jobs = o.jobs;
  std::vector<crawl::CrawlReport> reports;
  Tally& t = result.layers;
  {
    Scope experiment(tracer, "experiment", root.id());
    for (std::size_t i = 0; i < lists.size(); ++i) {
      // Each list crawls from its own forked stream, as Table 5 does.
      Scope call(tracer, "crawl.crawl_engine", experiment.id());
      auto engine = crawl::crawl_engine(lists[i], rng.fork(i), options);
      if (tracer != nullptr) {
        t["par.shards"] += static_cast<double>(engine.stats.shards);
        t["crawl.domains"] += static_cast<double>(engine.report.domains);
        t["crawl.queries"] += static_cast<double>(engine.stats.queries);
        t["crawl.steps"] += static_cast<double>(engine.stats.steps);
        t["crawl.in_flight_high_water"] =
            std::max(t["crawl.in_flight_high_water"],
                     static_cast<double>(engine.stats.in_flight_high_water));
      }
      reports.push_back(std::move(engine.report));
    }
  }
  {
    Scope analysis(tracer, "stats.analysis", root.id());
    result.rendered = render_crawl(reports);
  }
  result.wall_s = seconds_since(start);

  if (tracer != nullptr) {
    t["crawl.engine_s"] = tracer->total("crawl.crawl_engine");
    mark_absent(result,
                {"core.replicas", "atlas.vp_queries", "atlas.timeouts",
                 "atlas.platform_build_s", "atlas.measure_s", "auth.queries",
                 "auth.log_entries", "net.queries_carried",
                 "resolver.client_queries", "resolver.cache_answers",
                 "resolver.full_resolutions", "resolver.upstream_queries",
                 "resolver.servfails", "resolver.tcp_retries",
                 "resolver.upstream_per_client", "cache.hits", "cache.misses",
                 "cache.inserts", "cache.entries", "cache.hit_ratio",
                 "sim.events"},
                "crawl_engine tabulates generated domains without the "
                "simulator");
    mark_absent(result, {"par.shard_busy_max_s", "par.shard_imbalance"},
                "engine shards run inside crawl::crawl_engine");
    time_crawl_layers(lists.front(), rng.fork(0), o.seed, t);
  }
  return result;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"renumber", "centricity",
                                                 "passive", "crawl"};
  return names;
}

Result run_workload(const Options& options) {
  Result result;
  if (options.workload == "renumber") {
    result = run_renumber(options);
  } else if (options.workload == "centricity") {
    result = run_centricity(options);
  } else if (options.workload == "passive") {
    result = run_passive(options);
  } else if (options.workload == "crawl") {
    result = run_crawl(options);
  } else {
    throw std::invalid_argument("unknown workload: " + options.workload);
  }
  if (options.tracer != nullptr) {
    Tracer& tracer = *options.tracer;
    Tally& t = result.layers;
    for (const char* setup : {"core.EnvFactory", "core.World", "crawl.ListParams"}) {
      t["core.env_build_s"] += tracer.total(setup);
    }
    t["stats.analysis_s"] = tracer.total("stats.analysis");
    if (!result.absent.contains("atlas.measure_s")) {
      t["atlas.platform_build_s"] = tracer.total("atlas.Platform::build");
      t["atlas.measure_s"] = tracer.total("atlas.measure");
    }
    finish_layers(t);
  }
  return result;
}

}  // namespace perfbench
