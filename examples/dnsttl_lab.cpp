// dnsttl_lab: one CLI over the experiment drivers, for running your own
// parameterizations of the paper's studies.
//
//   dnsttl_lab centricity --parent 172800 --child 300 [--probes 2000]
//       § 3-style study: who follows which TTL for your layout?
//   dnsttl_lab bailiwick [--in|--out] [--ns-ttl 3600] [--a-ttl 7200]
//       § 4-style renumbering study: when do resolvers let go of the old
//       server?
//   dnsttl_lab latency --ttl 300 --ttl 86400 ... [--jobs N]
//       § 5.3-style RTT comparison across child NS TTL choices.
//   dnsttl_lab advise [--cdn|--ddos|--registry|--general]
//       § 6.3 recommendations with reasoning.
//   dnsttl_lab suite [--jobs N] [--seed N] [--bin-dir DIR] [--json PATH]
//       Runs all 16 experiment binaries, up to --jobs concurrently, and
//       reprints their outputs in a fixed order (byte-identical at any
//       --jobs).  --json also runs at --jobs 1 for a recorded comparison.
//
// Every run is deterministic; add --seed N to vary.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_quick_suite.h"
#include "core/advisor.h"
#include "core/bailiwick_experiment.h"
#include "core/centricity_experiment.h"
#include "core/effective_ttl.h"
#include "core/latency_experiment.h"
#include "core/world.h"
#include "stats/table.h"

using namespace dnsttl;

namespace {

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;
  std::vector<std::string> repeated_ttls;

  static Args parse(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
      std::string token = argv[i];
      if (token.rfind("--", 0) == 0) {
        std::string key = token.substr(2);
        std::string value = "1";
        if (i + 1 < argc && argv[i + 1][0] != '-') {
          value = argv[++i];
        }
        if (key == "ttl") {
          args.repeated_ttls.push_back(value);
        } else {
          args.flags[key] = value;
        }
      } else {
        args.positional.push_back(token);
      }
    }
    return args;
  }

  std::uint64_t u64(const std::string& key, std::uint64_t fallback) const {
    auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    return bench::BenchArgs::parse_u64("dnsttl_lab", "--" + key, it->second);
  }
  std::size_t jobs() const {  // --jobs 0 means hardware threads
    const std::size_t jobs = u64("jobs", par::default_jobs());
    return jobs == 0 ? par::hardware_jobs() : jobs;
  }
  bool has(const std::string& key) const { return flags.contains(key); }
};

atlas::PlatformSpec platform_spec(const Args& args) {
  atlas::PlatformSpec spec;
  spec.probe_count = args.u64("probes", 2000);
  spec.resolver_count = args.u64("resolvers", spec.probe_count * 2 / 3);
  return spec;
}

atlas::Platform make_platform(core::World& world,
                              const atlas::PlatformSpec& spec) {
  return atlas::Platform::build(world.network(), world.hints(),
                                world.root_zone(), spec, world.rng());
}

int cmd_centricity(const Args& args) {
  auto parent = dns::Ttl::of_seconds(static_cast<std::int64_t>(args.u64("parent", 172800)));
  auto child = dns::Ttl::of_seconds(static_cast<std::int64_t>(args.u64("child", 300)));
  core::World world{core::World::Options{args.u64("seed", 1), 0.002, {}}};
  world.add_tld("example", "a.nic", parent, child, child,
                net::Location{net::Region::kEU, 1.0});
  auto platform = make_platform(world, platform_spec(args));

  core::CentricitySetup setup;
  setup.name = "lab";
  setup.qname = dns::Name::from_string("example");
  setup.qtype = dns::RRType::kNS;
  setup.parent_ttl = parent;
  setup.child_ttl = child;
  setup.duration = args.u64("hours", 2) * sim::kHour;
  auto result = core::run_centricity(world, platform, setup);

  std::printf("parent TTL %u s, child TTL %u s, %zu VPs\n%s\n",
              parent.value(), child.value(), platform.vp_count(), result.summary().c_str());
  std::printf("%s", result.run.ttl_cdf()
                        .render({0, 60, static_cast<double>(child.value()),
                                 3600, 21599, 86400,
                                 static_cast<double>(parent.value())},
                                "observed TTLs")
                        .c_str());
  return 0;
}

int cmd_bailiwick(const Args& args) {
  core::World world{core::World::Options{args.u64("seed", 1), 0.002, {}}};
  auto platform = make_platform(world, platform_spec(args));
  core::BailiwickConfig config;
  config.in_bailiwick = !args.has("out");
  config.ns_ttl = dns::Ttl::of_seconds(static_cast<std::int64_t>(args.u64("ns-ttl", 3600)));
  config.a_ttl = dns::Ttl::of_seconds(static_cast<std::int64_t>(args.u64("a-ttl", 7200)));
  auto result = core::run_bailiwick(world, platform, config);

  std::printf("%s renumbering, NS TTL %u / A TTL %u, %zu VPs\n\n",
              config.in_bailiwick ? "in-bailiwick" : "out-of-bailiwick",
              config.ns_ttl.value(), config.a_ttl.value(),
              platform.vp_count());
  std::printf("%s\n", result.series.render().c_str());
  std::printf("sticky VPs: %zu (%.1f%%)\n", result.sticky_vp_count(),
              100.0 * static_cast<double>(result.sticky_vp_count()) /
                  static_cast<double>(platform.vp_count()));
  return 0;
}

int cmd_latency(const Args& args) {
  std::vector<dns::Ttl> ttls;
  for (const auto& text : args.repeated_ttls) {
    ttls.push_back(dns::Ttl::of_seconds(static_cast<std::int64_t>(
        bench::BenchArgs::parse_u64("dnsttl_lab", "--ttl", text))));
  }
  if (ttls.empty()) {
    ttls = {dns::Ttl{300}, dns::Ttl{86400}};
  }

  // Flags are parsed here, not in the workers: a bad value exits.
  const std::uint64_t seed = args.u64("seed", 1);
  const auto duration = args.u64("hours", 2) * sim::kHour;
  const atlas::PlatformSpec probes = platform_spec(args);
  // Each TTL is one independent grid point with its own world + platform.
  const auto rows = par::map_grid(
      args.jobs(),
      [&](dns::Ttl ttl) -> std::vector<std::string> {
        core::World world{core::World::Options{seed, 0.002, {}}};
        world.add_tld("example", "a.nic", dns::kTtl2Days, ttl, ttl,
                      net::Location{net::Region::kSA, 1.0});
        auto platform = make_platform(world, probes);
        atlas::MeasurementSpec spec;
        spec.name = "latency";
        spec.qname = dns::Name::from_string("example");
        spec.qtype = dns::RRType::kNS;
        spec.duration = duration;
        auto run = atlas::MeasurementRun::execute(
            world.simulation(), world.network(), platform, spec, world.rng());
        auto cdf = run.rtt_cdf_ms();
        return {std::to_string(ttl.value()) + " s",
                stats::fmt("%.1f ms", cdf.median()),
                stats::fmt("%.1f ms", cdf.quantile(0.75)),
                stats::fmt("%.1f ms", cdf.quantile(0.95))};
      },
      ttls);
  stats::TablePrinter table({"child NS TTL", "median RTT", "p75", "p95"});
  for (const auto& row : rows) {
    table.add_row(row);
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_advise(const Args& args) {
  core::OperatorProfile profile;
  if (args.has("cdn")) {
    profile.kind = core::OperatorProfile::Kind::kCdnLoadBalancer;
    profile.in_bailiwick_ns = false;
  } else if (args.has("ddos")) {
    profile.kind = core::OperatorProfile::Kind::kDdosMitigation;
  } else if (args.has("registry")) {
    profile.kind = core::OperatorProfile::Kind::kTldRegistry;
    profile.controls_parent_ttl = true;
  } else {
    profile.kind = core::OperatorProfile::Kind::kGeneralZone;
  }
  profile.dns_service_metered = args.has("metered");
  std::printf("%s", core::recommend(profile).render().c_str());
  return 0;
}

// Runs every experiment binary up to --jobs at a time and reprints the
// captured outputs in list order, so the suite's own stdout is identical
// no matter how many workers ran.  With --json the suite also runs at
// --jobs 1, checks the two passes byte-for-byte, and records both walls.
int cmd_suite(const Args& args, const std::string& argv0) {
  std::string bin_dir;
  if (auto it = args.flags.find("bin-dir"); it != args.flags.end()) {
    bin_dir = it->second;
  } else {
    auto slash = argv0.find_last_of('/');
    std::string self_dir = slash == std::string::npos ? "." : argv0.substr(0, slash);
    bin_dir = self_dir + "/../bench";
  }
  const std::size_t jobs = args.jobs();
  std::string child_flags = "--seed " + std::to_string(args.u64("seed", 1));
  if (!args.has("full")) {
    child_flags += " --quick";
  }

  const auto& names = bench::experiment_binaries();
  auto run_once = [&](std::size_t workers) {
    return bench::run_experiment_suite(bin_dir, names, child_flags, workers);
  };
  auto wall_of = [](auto&& body) {
    auto start = std::chrono::steady_clock::now();
    auto results = body();
    return std::pair{std::move(results),
                     std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count()};
  };

  const bool compare = args.has("json");
  std::vector<bench::ExperimentResult> baseline;
  double jobs1_wall = 0;
  if (compare && jobs != 1) {
    std::fprintf(stderr, "[suite] reference pass at --jobs 1...\n");
    auto [results, wall] = wall_of([&] { return run_once(1); });
    baseline = std::move(results);
    jobs1_wall = wall;
  }
  std::fprintf(stderr, "[suite] running %zu experiments at --jobs %zu from %s\n",
               names.size(), jobs, bin_dir.c_str());
  auto [results, suite_wall] = wall_of([&] { return run_once(jobs); });
  if (compare && jobs == 1) {
    jobs1_wall = suite_wall;
    baseline = results;
  }

  bool identical = true;
  if (compare) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      identical = identical && baseline[i].output == results[i].output &&
                  baseline[i].exit_code == results[i].exit_code;
    }
  }

  int failures = 0;
  for (const auto& result : results) {
    std::printf("%s", result.output.c_str());
    if (result.exit_code != 0) {
      ++failures;
      std::printf("[suite] %s FAILED (exit %d)\n", result.name.c_str(),
                  result.exit_code);
    }
  }
  // Timing goes to stderr: stdout stays byte-identical at any --jobs.
  stats::TablePrinter walls({"experiment", "wall"});
  for (const auto& result : results) {
    walls.add_row({result.name, stats::fmt("%.2f s", result.wall_seconds)});
  }
  std::fprintf(stderr,
               "suite schedule (--jobs %zu, %zu hardware threads):\n%s\n",
               jobs, par::hardware_jobs(), walls.render().c_str());
  std::fprintf(stderr, "[suite] total wall %.2f s, %d failures\n", suite_wall,
               failures);
  if (compare) {
    std::fprintf(stderr,
                 "[suite] outputs vs --jobs 1: %s (jobs1 %.2f s, jobs%zu "
                 "%.2f s, speedup %.2fx)\n",
                 identical ? "byte-identical" : "DIFFER", jobs1_wall, jobs,
                 suite_wall, suite_wall > 0 ? jobs1_wall / suite_wall : 0.0);
  }

  if (auto it = args.flags.find("json"); it != args.flags.end()) {
    std::FILE* out = std::fopen(it->second.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "[suite] cannot write %s\n", it->second.c_str());
      return 2;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"benchmark\": \"parallel_suite\",\n");
    std::fprintf(out, "  \"generated_by\": \"dnsttl_lab suite\",\n");
    std::fprintf(out, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(args.u64("seed", 1)));
    std::fprintf(out, "  \"quick\": %s,\n", args.has("full") ? "false" : "true");
    std::fprintf(out, "  \"jobs\": %zu,\n", jobs);
    std::fprintf(out, "  \"hardware_jobs\": %zu,\n", par::hardware_jobs());
    std::fprintf(out, "  \"wall_seconds_jobs1\": %.6f,\n", jobs1_wall);
    std::fprintf(out, "  \"wall_seconds\": %.6f,\n", suite_wall);
    std::fprintf(out, "  \"speedup_vs_jobs1\": %.6f,\n",
                 suite_wall > 0 ? jobs1_wall / suite_wall : 0.0);
    std::fprintf(out, "  \"outputs_identical_across_jobs\": %s,\n",
                 identical ? "true" : "false");
    std::fprintf(out, "  \"experiments\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      std::fprintf(out,
                   "    {\"name\": \"%s\", \"exit_code\": %d, "
                   "\"wall_seconds\": %.6f}%s\n",
                   results[i].name.c_str(), results[i].exit_code,
                   results[i].wall_seconds,
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::fprintf(stderr, "[suite] wrote %s\n", it->second.c_str());
  }
  return failures == 0 && identical ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = Args::parse(argc, argv);
  if (args.positional.empty()) {
    std::fprintf(
        stderr,
        "usage: dnsttl_lab <centricity|bailiwick|latency|advise|suite> "
        "[flags]\n"
        "  centricity --parent T --child T [--probes N] [--hours H]\n"
        "  bailiwick  [--out] [--ns-ttl T] [--a-ttl T] [--probes N]\n"
        "  latency    --ttl T [--ttl T ...] [--probes N] [--jobs N]\n"
        "  advise     [--cdn|--ddos|--registry] [--metered]\n"
        "  suite      [--jobs N] [--bin-dir DIR] [--json PATH] [--full]\n"
        "  (all: --seed N; latency/suite default jobs: hardware threads or "
        "$DNSTTL_JOBS)\n");
    return 1;
  }
  const auto& command = args.positional[0];
  try {
    if (command == "centricity") return cmd_centricity(args);
    if (command == "bailiwick") return cmd_bailiwick(args);
    if (command == "latency") return cmd_latency(args);
    if (command == "advise") return cmd_advise(args);
    if (command == "suite") return cmd_suite(args, argv[0]);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return 1;
}
